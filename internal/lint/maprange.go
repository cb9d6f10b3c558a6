package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// orderSensitiveCalls names functions and methods whose invocation order is
// observable in the simulation: anything that schedules events, advances or
// charges virtual time, touches NIC/mesh state, performs daemon RPCs, or
// emits output. Driving any of these from Go's randomized map iteration
// order makes the run nondeterministic — the exact bug class that lived in
// internal/daemon's mapping protocol and internal/nx's receive scan.
var orderSensitiveCalls = map[string]bool{
	// sim engine / proc scheduling
	"Schedule": true, "At": true, "Spawn": true, "Sleep": true,
	"Signal": true, "Broadcast": true, "Interrupt": true,
	"Wait": true, "WaitAny": true, "WaitTimeout": true,
	// kernel memory/cost primitives
	"Compute": true, "Poke": true, "Peek": true, "PeekWord": true,
	"WriteWord": true, "WriteBytes": true, "CopyVA": true,
	"WaitWord": true, "WaitChange": true, "WaitPred": true,
	// NIC / mesh / daemon operations
	"Send": true, "Call": true, "Recv": true, "RecvAll": true,
	"Quiesce": true, "QuiesceIncoming": true, "WaitDrained": true,
	"AllocOPT": true, "FreeOPT": true, "SetOPT": true, "GetOPT": true,
	"SetIPT": true, "SetFlags": true, "BindAU": true, "UnbindAU": true,
	"Export": true, "Import": true, "Unimport": true, "Unexport": true,
	"handleRevoke": true,
	// nx receive-path helpers that read memory, charge per-word costs or
	// send credits
	"inWord": true, "readHdr": true, "flushCredits": true,
	"occupied": true, "nextOccupied": true,
	// output: printing in map order is user-visible nondeterminism
	"Printf": true, "Println": true, "Print": true,
	"Fprintf": true, "Fprintln": true, "Fprint": true,
}

// orderSensitivePrefixes extends the set by family: any Send*/Recv*/Wait*/
// Flush* call is presumed order-sensitive.
var orderSensitivePrefixes = []string{"Send", "Recv", "Wait", "Flush", "flush"}

func isOrderSensitive(name string) bool {
	if orderSensitiveCalls[name] {
		return true
	}
	for _, pre := range orderSensitivePrefixes {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

// MapRangeAnalyzer returns the deterministic-iteration rule: a for…range
// over a map whose body performs order-sensitive work is flagged. Iterate
// over sorted keys (or a deterministically ordered slice) instead.
func MapRangeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "deterministic-iteration",
		Doc:  "flag map iteration whose body schedules, sends, charges time, or prints",
		Run: func(p *Package, report func(pos token.Pos, msg string)) {
			if p.Info == nil {
				return
			}
			eachFile(p, func(f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					rng, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					tv, ok := p.Info.Types[rng.X]
					if !ok || tv.Type == nil {
						return true
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
						return true
					}
					ast.Inspect(rng.Body, func(m ast.Node) bool {
						call, ok := m.(*ast.CallExpr)
						if !ok {
							return true
						}
						if name := calleeName(call); isOrderSensitive(name) {
							report(rng.Pos(), fmt.Sprintf(
								"range over map %s drives order-sensitive call %s(...) at %s; iterate over sorted keys",
								exprString(rng.X), name, p.Fset.Position(call.Pos())))
							return false // one report per offending call chain is enough
						}
						return true
					})
					return true
				})
			})
		},
	}
}

// exprString renders a short, best-effort description of an expression.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
