package kernel

import (
	"fmt"
	"reflect"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

// buildSnapWorld runs the fixed recipe every snapshot test shares: one
// process that maps four pages, unmaps the upper two (pushing their frames
// onto the free stack), write-protects its first page and revokes the
// second entirely, and flags a page for automatic update.
func buildSnapWorld(t *testing.T) (*sim.Engine, *Machine, *Process, VA) {
	t.Helper()
	e := sim.NewEngine()
	m := NewMachine(0, e, 4<<20)
	var base VA
	pr := m.Spawn("init", func(p *Process) {
		base = p.MapPages(4, 0)
		p.UnmapPages(base+2*hw.Page, 2)
		p.Mprotect(base, 1, ProtRead)
		p.Mprotect(base+hw.Page, 1, ProtNone)
		p.SetAUPage(PageOf(base), true)
	})
	e.RunAll()
	return e, m, pr, base
}

// TestSnapStateGolden pins the exact allocator and protection dumps the
// fixed recipe produces. If this breaks, either the recipe's frame-hand-out
// order changed (a replay-identity break worth noticing) or the dump's
// ordering guarantees regressed.
func TestSnapStateGolden(t *testing.T) {
	_, m, pr, base := buildSnapWorld(t)

	// Frames 1..4 allocated, 3 and 4 freed in unmap (ascending page) order.
	got := fmt.Sprintf("%+v", m.SnapState())
	want := "{NextFrame:5 FreedFrames:[3 4] NextPID:1 IRQRaised:0}"
	if got != want {
		t.Fatalf("machine state golden mismatch:\n got %s\nwant %s", got, want)
	}

	img := pr.SnapImage()
	vpn := PageOf(base)
	wantImg := fmt.Sprintf(
		"{PID:1 Name:init PT:[{VPN:%d Frame:1 Flags:0} {VPN:%d Frame:2 Flags:0}] Prot:[{VPN:%d Prot:%v} {VPN:%d Prot:%v}] AUPages:[%d] NextVA:%d HeapVA:0 HeapEnd:0 HeapWT:false Blocked:false PendingSignals:0 PageFaults:0 Exited:true}",
		vpn, vpn+1, vpn, ProtRead, vpn+1, ProtNone, vpn, base+4*hw.Page)
	if gotImg := fmt.Sprintf("%+v", img); gotImg != wantImg {
		t.Fatalf("process image golden mismatch:\n got %s\nwant %s", gotImg, wantImg)
	}
}

// TestSnapStateRoundTrip restores the fixed recipe's state onto a blank
// process and checks equivalence where it matters for replay: the restored
// allocator hands out the same frames in the same order, and the restored
// page table and protection overrides answer identically to the original.
func TestSnapStateRoundTrip(t *testing.T) {
	_, m, pr, base := buildSnapWorld(t)
	mst := m.SnapState()
	img := pr.SnapImage()

	e2 := sim.NewEngine()
	m2 := NewMachine(0, e2, 4<<20)
	pr2 := m2.Spawn("init", func(p *Process) {})
	e2.RunAll()

	if err := pr2.VerifyImage(img); err != nil {
		t.Fatalf("VerifyImage on matching process: %v", err)
	}
	if err := pr2.InstallImage(img); err != nil {
		t.Fatalf("InstallImage: %v", err)
	}
	m2.RestoreState(mst)

	if got := fmt.Sprintf("%+v", pr2.SnapImage()); got != fmt.Sprintf("%+v", img) {
		t.Fatalf("restored image differs from captured:\n got %s\nwant %s", got, fmt.Sprintf("%+v", img))
	}
	if !reflect.DeepEqual(m2.SnapState(), mst) {
		t.Fatalf("restored machine state differs: %+v vs %+v", m2.SnapState(), mst)
	}

	// Allocator equivalence: both worlds must hand out the freed frames in
	// LIFO order, then continue from the same bump cursor.
	for i := 0; i < 4; i++ {
		f1, f2 := m.AllocFrame(), m2.AllocFrame()
		if f1 != f2 {
			t.Fatalf("alloc %d diverged: original frame %d, restored %d", i, f1, f2)
		}
	}

	// Page-protection equivalence at every interesting VA.
	for off := VA(0); off < 4*hw.Page; off += hw.Page {
		if pr.ProtOf(base+off) != pr2.ProtOf(base+off) {
			t.Fatalf("protection diverged at %#x: %v vs %v", base+off, pr.ProtOf(base+off), pr2.ProtOf(base+off))
		}
		pte1, ok1 := pr.PTEOf(base + off)
		pte2, ok2 := pr2.PTEOf(base + off)
		if ok1 != ok2 || pte1 != pte2 {
			t.Fatalf("page table diverged at %#x: %v,%v vs %v,%v", base+off, pte1, ok1, pte2, ok2)
		}
	}
	if !pr2.IsAUPage(PageOf(base)) {
		t.Fatalf("AU flag lost in restore")
	}
}

// TestVerifyImageCatchesDrift: the tripwire fires when the rebuilt world
// spawned a different process than the image expects.
func TestVerifyImageCatchesDrift(t *testing.T) {
	_, _, pr, _ := buildSnapWorld(t)
	img := pr.SnapImage()

	e2 := sim.NewEngine()
	m2 := NewMachine(0, e2, 4<<20)
	other := m2.Spawn("imposter", func(p *Process) {})
	e2.RunAll()
	if err := other.VerifyImage(img); err == nil {
		t.Fatalf("VerifyImage accepted a name mismatch")
	}

	img.PendingSignals = 1
	if err := pr.InstallImage(img); err == nil {
		t.Fatalf("InstallImage accepted pending signals")
	}
}

// TestDensePageTable covers the page table's holes: an unmapped page in
// the middle of a mapping, VAs below the first mapping and past the last,
// and an image installed onto a fresh process, which must answer every
// translation identically and keep bump-allocating VAs past the image's
// cursor rather than into a hole.
func TestDensePageTable(t *testing.T) {
	e := sim.NewEngine()
	m := NewMachine(0, e, 4<<20)
	var base VA
	pr := m.Spawn("init", func(p *Process) {
		base = p.MapPages(3, FlagPinned)
		p.UnmapPages(base+hw.Page, 1)
	})
	e.RunAll()

	unmapped := []VA{0, base - 1, base + hw.Page, base + 2*hw.Page - 4, base + 3*hw.Page, 1 << 40}
	for _, va := range unmapped {
		if _, err := pr.Translate(va); err == nil {
			t.Errorf("Translate(%#x) succeeded on an unmapped page", va)
		}
		if _, ok := pr.PTEOf(va); ok {
			t.Errorf("PTEOf(%#x) reports an unmapped page as mapped", va)
		}
	}
	for _, va := range []VA{base, base + 2*hw.Page + 4} {
		pte, ok := pr.PTEOf(va)
		pa, err := pr.Translate(va)
		if !ok || err != nil || pte.Flags != FlagPinned || pa != pte.Frame.Base()+mem.PA(va%hw.Page) {
			t.Errorf("va %#x: pte %+v ok=%v, pa %#x err=%v", va, pte, ok, pa, err)
		}
	}
	img := pr.SnapImage()
	if len(img.PT) != 2 || img.PT[0].VPN != PageOf(base) || img.PT[1].VPN != PageOf(base)+2 {
		t.Fatalf("image page table %+v, want the two mapped pages in VPN order", img.PT)
	}

	e2 := sim.NewEngine()
	m2 := NewMachine(0, e2, 4<<20)
	pr2 := m2.Spawn("init", func(p *Process) {})
	e2.RunAll()
	if err := pr2.InstallImage(img); err != nil {
		t.Fatalf("InstallImage: %v", err)
	}
	m2.RestoreState(m.SnapState())
	for va := VA(0); va < base+4*hw.Page; va += hw.Page / 2 {
		pte1, ok1 := pr.PTEOf(va)
		pte2, ok2 := pr2.PTEOf(va)
		if ok1 != ok2 || pte1 != pte2 {
			t.Fatalf("va %#x: restored %+v,%v, original %+v,%v", va, pte2, ok2, pte1, ok1)
		}
	}
	// MapPages charges no time, so it runs outside the process body here.
	if va := pr2.MapPages(1, 0); va != img.NextVA {
		t.Fatalf("MapPages after restore returned %#x, want the image cursor %#x", va, img.NextVA)
	}
	if _, err := pr2.Translate(img.NextVA); err != nil {
		t.Fatalf("page mapped after restore: %v", err)
	}
	if _, ok := pr2.PTEOf(base + hw.Page); ok {
		t.Fatalf("MapPages after restore filled the hole at %#x", base+hw.Page)
	}
}
