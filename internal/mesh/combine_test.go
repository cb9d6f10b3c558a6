package mesh

import (
	"math"
	"testing"
	"time"

	"shrimp/internal/sim"
)

// combineAll contributes one value per node (staggered in time when jitter
// is set) and returns each node's delivered (ival, fval) results.
func combineAll(e *sim.Engine, n *Network, op CombOp, id uint64,
	ival func(node int) int64, fval func(node int) float64,
	jitter time.Duration) ([]int64, []float64) {
	gotI := make([]int64, n.Nodes())
	gotF := make([]float64, n.Nodes())
	for i := 0; i < n.Nodes(); i++ {
		i := i
		e.Schedule(time.Duration(i)*jitter, func() {
			n.Combine(NodeID(i), op, id, ival(i), fval(i), func(iv int64, fv float64) {
				gotI[i], gotF[i] = iv, fv
			})
		})
	}
	e.RunAll()
	return gotI, gotF
}

// TestCombineISum: every node receives the full integer sum, router merges
// happened, and the per-collective state is gone afterwards.
func TestCombineISum(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2, 2})
	n.EnableCombining()
	gotI, _ := combineAll(e, n, CombISum, 1,
		func(node int) int64 { return int64(node + 1) },
		func(int) float64 { return 0 }, 300*time.Nanosecond)
	want := int64(8 * 9 / 2) // 1+2+...+8
	for node, v := range gotI {
		if v != want {
			t.Fatalf("node %d got %d, want %d", node, v, want)
		}
	}
	merged, delivered := n.CombStats()
	if merged == 0 || delivered != int64(n.Nodes()) {
		t.Fatalf("stats merged=%d delivered=%d", merged, delivered)
	}
	if len(n.comb.ops) != 0 {
		t.Fatalf("combine state not pruned: %d live ops", len(n.comb.ops))
	}
}

// TestCombineBarrier: no node's barrier completes before the last node has
// contributed (the defining property of a barrier).
func TestCombineBarrier(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 2})
	n.EnableCombining()
	const lastAt = 50 * time.Microsecond
	var firstDone sim.Time
	for i := 0; i < n.Nodes(); i++ {
		i := i
		at := time.Duration(0)
		if i == n.Nodes()-1 {
			at = lastAt // one straggler
		}
		e.Schedule(at, func() {
			n.Combine(NodeID(i), CombBarrier, 9, 0, 0, func(int64, float64) {
				if firstDone == 0 {
					firstDone = e.Now()
				}
			})
		})
	}
	e.RunAll()
	if firstDone < sim.Time(0).Add(lastAt) {
		t.Fatalf("barrier released at %v, before the straggler arrived at %v", firstDone, lastAt)
	}
}

// TestCombineFSumDeterministic: the float fold is in tree order, so all
// nodes agree bitwise and repeated runs reproduce the same bits.
func TestCombineFSumDeterministic(t *testing.T) {
	one := func() uint64 {
		e := sim.NewEngine()
		n := NewDims(e, []int{3, 3})
		n.EnableCombining()
		_, gotF := combineAll(e, n, CombFSum, 2,
			func(int) int64 { return 0 },
			func(node int) float64 { return 1.0 / float64(node+1) },
			700*time.Nanosecond)
		bits := math.Float64bits(gotF[0])
		for node, v := range gotF {
			if math.Float64bits(v) != bits {
				t.Fatalf("node %d got %x, node 0 got %x", node, math.Float64bits(v), bits)
			}
		}
		return bits
	}
	if one() != one() {
		t.Fatal("float sum not reproducible across runs")
	}
}

// TestCombineConcurrentOps: two collectives in flight at once keep their
// contributions separate.
func TestCombineConcurrentOps(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{2, 2})
	n.EnableCombining()
	sums := map[uint64][]int64{10: make([]int64, 4), 11: make([]int64, 4)}
	for i := 0; i < 4; i++ {
		i := i
		e.Schedule(time.Duration(i)*100*time.Nanosecond, func() {
			n.Combine(NodeID(i), CombISum, 10, int64(i), 0, func(v int64, _ float64) { sums[10][i] = v })
			n.Combine(NodeID(i), CombISum, 11, int64(100*i), 0, func(v int64, _ float64) { sums[11][i] = v })
		})
	}
	e.RunAll()
	for i := 0; i < 4; i++ {
		if sums[10][i] != 6 || sums[11][i] != 600 {
			t.Fatalf("node %d: got %d/%d, want 6/600", i, sums[10][i], sums[11][i])
		}
	}
}

// TestCombineDeterministicDigest: the combining tree's full event stream —
// channel reservations included — replays bit-for-bit.
func TestCombineDeterministicDigest(t *testing.T) {
	sim.CheckDeterminism(t, func(d sim.Tracer) {
		e := sim.NewEngine()
		e.AttachDigest(d)
		n := NewDims(e, []int{2, 3, 2})
		n.EnableCombining()
		combineAll(e, n, CombFSum, 3,
			func(int) int64 { return 0 },
			func(node int) float64 { return float64(node) * 0.1 },
			450*time.Nanosecond)
	})
}

// TestCombineTreeShape: the reduction tree embeds in dimension-order routes
// — every non-root's parent is its first hop toward node 0 — and the
// contribution counts cover the whole machine exactly once.
func TestCombineTreeShape(t *testing.T) {
	e := sim.NewEngine()
	n := NewDims(e, []int{4, 3, 2})
	n.EnableCombining()
	c := n.comb
	totalNeed := 0
	for r := 0; r < n.Nodes(); r++ {
		totalNeed += c.need[r]
		if r == 0 {
			if c.parent[r] != -1 {
				t.Fatal("root has a parent")
			}
			continue
		}
		if want := n.Route(NodeID(r), 0)[1]; c.parent[r] != want {
			t.Fatalf("node %d parent = %d, want first hop %d", r, c.parent[r], want)
		}
	}
	// Each node contributes once locally and each edge forwards once:
	// N local + (N-1) forwarded.
	if totalNeed != 2*n.Nodes()-1 {
		t.Fatalf("total need = %d, want %d", totalNeed, 2*n.Nodes()-1)
	}
}
