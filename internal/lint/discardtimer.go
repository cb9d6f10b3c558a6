package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DiscardedTimerAnalyzer returns the discarded-timer rule: an expression
// statement that calls (*sim.Engine).Schedule or At throws away the *Timer
// handle those calls build for cancellation. Fire-and-forget events must
// use Post or PostAt, which schedule the same event without allocating a
// handle. Test files are exempt: tests call Schedule to exercise it.
func DiscardedTimerAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "discarded-timer",
		Doc:  "a call to sim.Engine.Schedule/At whose *Timer is discarded should be Post/PostAt",
		Run: func(p *Package, report func(pos token.Pos, msg string)) {
			if p.Info == nil {
				return
			}
			eachFile(p, func(f *ast.File) {
				if p.IsTestFile(f) {
					return
				}
				ast.Inspect(f, func(n ast.Node) bool {
					stmt, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := stmt.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name := engineTimerCall(p, call); name != "" {
						report(call.Pos(), fmt.Sprintf(
							"the *Timer returned by sim.Engine.%s is discarded; use %s, which allocates no handle",
							name, handleFree[name]))
					}
					return true
				})
			})
		},
	}
}

// handleFree maps each handle-returning sim.Engine method to its
// handle-free counterpart.
var handleFree = map[string]string{"Schedule": "Post", "At": "PostAt"}

// engineTimerCall returns "Schedule" or "At" when call invokes that method
// of the simulation engine, "" otherwise.
func engineTimerCall(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := useObj(p, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || handleFree[fn.Name()] == "" {
		return ""
	}
	if path := fn.Pkg().Path(); path != SimPath && !strings.HasSuffix(path, "/internal/sim") {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.Obj().Name() != "Engine" {
		return ""
	}
	return fn.Name()
}
