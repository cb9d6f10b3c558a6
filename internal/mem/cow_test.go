package mem

import (
	"bytes"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// TestCloneWriteIsolation is the clone-aliasing regression test: a write
// after Clone must not leak into the parent's frames, the parent's writes
// must not leak into the clone, and neither side may ever scribble on the
// shared zero page.
func TestCloneWriteIsolation(t *testing.T) {
	eng := sim.NewEngine()
	parent := New(eng, 1<<20)

	// Materialize two frames in the parent with distinct contents.
	pa0, pa1 := PFN(3).Base(), PFN(7).Base()
	parent.WriteDMA(pa0, bytes.Repeat([]byte{0xAA}, 64))
	parent.WriteDMA(pa1, bytes.Repeat([]byte{0xBB}, 64))

	clone := parent.Clone(eng)
	if got := clone.MaterializedFrames(); got != 2 {
		t.Fatalf("clone materialized %d frames, want 2", got)
	}
	if got, want := clone.Read(pa0, 64), bytes.Repeat([]byte{0xAA}, 64); !bytes.Equal(got, want) {
		t.Fatalf("clone reads %x at frame 3, want parent contents %x", got[:4], want[:4])
	}

	// Write-after-clone on the clone: parent must not see it.
	clone.WriteCPU(pa0, bytes.Repeat([]byte{0x11}, 64))
	if got := parent.Read(pa0, 64); got[0] != 0xAA {
		t.Fatalf("clone write leaked into parent: parent byte %#x, want 0xAA", got[0])
	}
	if got := clone.Read(pa0, 64); got[0] != 0x11 {
		t.Fatalf("clone lost its own write: %#x", got[0])
	}

	// Write-after-clone on the parent: clone must not see it.
	parent.WriteCPU(pa1, bytes.Repeat([]byte{0x22}, 64))
	if got := clone.Read(pa1, 64); got[0] != 0xBB {
		t.Fatalf("parent write leaked into clone: clone byte %#x, want 0xBB", got[0])
	}

	// A write to a frame neither side ever touched must materialize a fresh
	// private page, never the shared zero page.
	zeroPFN := PFN(11)
	clone.WriteCPU(zeroPFN.Base(), []byte{0x33})
	if got := parent.Read(zeroPFN.Base(), 1); got[0] != 0 {
		t.Fatalf("zero-page write leaked into parent: %#x", got[0])
	}
	other := New(eng, 1<<20)
	if got := other.Read(zeroPFN.Base(), 1); got[0] != 0 {
		t.Fatalf("shared zero page corrupted: unrelated memory reads %#x", got[0])
	}
	for i, b := range zeroPage {
		if b != 0 {
			t.Fatalf("package zero page dirtied at offset %d: %#x", i, b)
		}
	}
}

// TestSnapshotFramesImmutable: an image taken with SnapshotFrames must stay
// byte-stable while the source memory keeps writing.
func TestSnapshotFramesImmutable(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 1<<20)
	m.WriteDMA(PFN(2).Base(), bytes.Repeat([]byte{0x5A}, hw.Page))

	img := m.SnapshotFrames()
	if len(img) != 1 || img[0].F != 2 {
		t.Fatalf("snapshot = %d frames (first %v), want exactly frame 2", len(img), img)
	}
	m.WriteCPU(PFN(2).Base(), []byte{0xFF})
	if img[0].Data[0] != 0x5A {
		t.Fatalf("post-snapshot write mutated the image: %#x", img[0].Data[0])
	}

	// Install the image into a fresh memory: contents visible, still CoW.
	m2 := New(eng, 1<<20)
	if err := m2.InstallFrames(img); err != nil {
		t.Fatalf("InstallFrames: %v", err)
	}
	if got := m2.Read(PFN(2).Base(), 1); got[0] != 0x5A {
		t.Fatalf("installed frame reads %#x, want 0x5A", got[0])
	}
	if m2.SharedFrames() != 1 {
		t.Fatalf("installed frame not sealed: SharedFrames=%d", m2.SharedFrames())
	}
	m2.WriteCPU(PFN(2).Base(), []byte{0x77})
	if img[0].Data[0] != 0x5A {
		t.Fatalf("write through installed memory mutated the image: %#x", img[0].Data[0])
	}
}

// TestWriteGen: a frame's write generation moves on every write landing in
// it and on InstallFrames over it (which changes the contents without a
// write, so no watcher is woken), and stays put for writes elsewhere.
// Readers key cached derivations of a frame's contents on it.
func TestWriteGen(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 1<<20)
	const f = PFN(5)
	g0 := m.WriteGen(f)

	m.WriteDMA(f.Base()+8, []byte{1, 2, 3, 4})
	g1 := m.WriteGen(f)
	if g1 == g0 {
		t.Fatalf("WriteDMA left the generation at %d", g0)
	}
	m.WriteCPU((f + 1).Base(), []byte{9})
	if g := m.WriteGen(f); g != g1 {
		t.Fatalf("a write to frame %d moved frame %d's generation %d -> %d", f+1, f, g1, g)
	}
	// A write straddling the boundary touches both frames.
	m.WriteNoSnoop(f.Base()-2, []byte{7, 7, 7, 7})
	g2 := m.WriteGen(f)
	if g2 == g1 {
		t.Fatalf("straddling write left the generation at %d", g1)
	}

	img := bytes.Repeat([]byte{0xCC}, hw.Page)
	if err := m.InstallFrames([]FrameData{{F: f, Data: img}}); err != nil {
		t.Fatal(err)
	}
	if g := m.WriteGen(f); g == g2 {
		t.Fatalf("InstallFrames left the generation at %d", g2)
	}
	if got := m.U32(f.Base()); got != 0xCCCCCCCC {
		t.Fatalf("installed frame reads %#x", got)
	}
}
