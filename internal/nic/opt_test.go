package nic

import (
	"reflect"
	"runtime"
	"testing"

	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// newBoard builds one NIC with an optEntries-entry OPT on a fresh node.
func newBoard(optEntries int) *NIC {
	e := sim.NewEngine()
	m := kernel.NewMachine(0, e, 1<<20)
	return New(m, mesh.New(e, 2, 1), 0, optEntries)
}

func TestOPTUnwrittenChunkReadsZero(t *testing.T) {
	n := newBoard(4096)
	n.SetOPT(5, OPTEntry{Valid: true, DstNode: 1, DstPFN: 9})
	if got := n.GetOPT(3000); got != (OPTEntry{}) {
		t.Fatalf("GetOPT on an unwritten chunk = %+v, want the zero entry", got)
	}
	n.FreeOPT(2990, 20) // zeroing entries of an absent chunk
	if n.opt[3000>>chunkShift] != nil {
		t.Fatal("reading or freeing entries allocated their chunk")
	}
	if got := n.GetOPT(5); !got.Valid || got.DstPFN != 9 {
		t.Fatalf("GetOPT(5) = %+v, want the programmed entry", got)
	}
}

func TestOPTAllocFirstFitAcrossChunks(t *testing.T) {
	n := newBoard(1024)
	alloc := func(count, want int) {
		t.Helper()
		base, err := n.AllocOPT(count)
		if err != nil {
			t.Fatal(err)
		}
		if base != want {
			t.Fatalf("AllocOPT(%d) = %d, want %d", count, base, want)
		}
	}
	alloc(250, 0)
	alloc(10, 250) // straddles the first chunk boundary
	for i := 250; i < 260; i++ {
		n.SetOPT(i, OPTEntry{Valid: true, DstPFN: mem.PFN(0x100 + i)})
	}
	n.FreeOPT(0, 250)
	alloc(5, 0)     // first fit reuses the lowest hole
	alloc(300, 260) // the 245-entry hole is too small; spans two boundaries
	for i := 250; i < 260; i++ {
		if got := n.GetOPT(i); !got.Valid || got.DstPFN != mem.PFN(0x100+i) {
			t.Fatalf("entry %d = %+v after neighbouring allocations", i, got)
		}
	}
	n.FreeOPT(250, 10)
	if got := n.GetOPT(255); got != (OPTEntry{}) {
		t.Fatalf("freed entry reads %+v, want the zero entry", got)
	}
	if _, err := n.AllocOPT(465); err == nil {
		t.Fatal("allocation larger than any free run should fail")
	}
}

func TestNewOPTIsDemandAllocated(t *testing.T) {
	e := sim.NewEngine()
	m := kernel.NewMachine(0, e, 1<<20)
	net := mesh.New(e, 2, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := New(m, net, 0, 4096)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes", got)
	if got >= 16<<10 {
		t.Fatalf("New with a 4096-entry OPT allocated %d bytes, want < 16 KB", got)
	}
	runtime.KeepAlive(n)
}

func TestOPTSnapshotRoundTripTwoChunks(t *testing.T) {
	src := newBoard(1024)
	if _, err := src.AllocOPT(300); err != nil {
		t.Fatal(err)
	}
	src.SetOPT(3, OPTEntry{Valid: true, DstNode: 1, DstPFN: 7, Combine: true})
	src.SetOPT(290, OPTEntry{Valid: true, DstNode: 1, DstPFN: 8, NotifyOnArrival: true})
	st, err := src.SnapState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.OPT) != 2 || st.OPT[0].Idx != 3 || st.OPT[1].Idx != 290 || len(st.Reserved) != 300 {
		t.Fatalf("snapshot OPT = %+v, %d reserved", st.OPT, len(st.Reserved))
	}
	dst := newBoard(1024)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	again, err := dst.SnapState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, again) {
		t.Fatalf("round trip changed the image:\n got %+v\nwant %+v", again, st)
	}
	if base, err := dst.AllocOPT(1); err != nil || base != 300 {
		t.Fatalf("AllocOPT after restore = %d, %v; want 300", base, err)
	}
}
