// Copy-on-write frame sharing: the mechanism behind internal/snap's cheap
// world clones. Seal marks every materialized frame shared; a shared
// frame's backing slice may be referenced by any number of Memories (the
// snapshot image, the original world, every clone), and the first write
// through any of them copies the page out privately first. Never-written
// frames keep reading from the package-wide zero page and are never part of
// an image, so a 40MB DRAM with a 2MB dataset clones by copying a handful
// of chunk tables.
package mem

import (
	"fmt"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// sealChunk mirrors one pageChunk with per-frame shared bits.
type sealChunk [1 << pageChunkShift]bool

// setSealed marks frame f's backing shared.
func (m *Memory) setSealed(f PFN) {
	if m.seals == nil {
		m.seals = make([]*sealChunk, len(m.frames))
	}
	sc := m.seals[f>>pageChunkShift]
	if sc == nil {
		sc = new(sealChunk)
		m.seals[f>>pageChunkShift] = sc
	}
	sc[f&(1<<pageChunkShift-1)] = true
}

// Seal marks every materialized frame shared. After Seal the memory remains
// fully usable: reads are untouched and the next write to a sealed frame
// copies the page privately, so whoever else holds the sealed slices (a
// snapshot image, a clone) never observes the write.
func (m *Memory) Seal() {
	if m.seals == nil {
		m.seals = make([]*sealChunk, len(m.frames))
	}
	for ci, c := range m.frames {
		if c == nil {
			continue
		}
		sc := m.seals[ci]
		for i := range c {
			if c[i] != nil {
				if sc == nil {
					sc = new(sealChunk)
					m.seals[ci] = sc
				}
				sc[i] = true
			}
		}
	}
}

// Clone returns a new Memory on eng sharing every materialized frame with m
// copy-on-write. The parent is sealed first, so writes on either side copy
// out and neither ever sees the other's stores. Watchers, snoop hooks, and
// snooped-page marks do not transfer: they are per-world wiring,
// re-established by whatever NIC/kernel the clone is attached to.
func (m *Memory) Clone(eng *sim.Engine) *Memory {
	m.Seal()
	nm := New(eng, m.size)
	nm.seals = make([]*sealChunk, len(nm.frames))
	for ci, c := range m.frames {
		if c == nil {
			continue
		}
		nc := new(pageChunk)
		*nc = *c
		nm.frames[ci] = nc
		sc := new(sealChunk)
		for i := range c {
			if c[i] != nil {
				sc[i] = true
			}
		}
		nm.seals[ci] = sc
	}
	return nm
}

// FrameData is one materialized frame's contents for snapshot capture. Data
// aliases the sealed backing slice — read-only by contract, enforced by the
// seal bits on every Memory that shares it.
type FrameData struct {
	F    PFN
	Data []byte
}

// SnapshotFrames seals the memory and returns every materialized frame in
// ascending PFN order, zero-copy. Frames still reading from the shared zero
// page are omitted: an image records only what was ever written.
func (m *Memory) SnapshotFrames() []FrameData {
	m.Seal()
	var out []FrameData
	for ci, c := range m.frames {
		if c == nil {
			continue
		}
		for i, p := range c {
			if p != nil {
				out = append(out, FrameData{F: PFN(ci<<pageChunkShift + i), Data: p})
			}
		}
	}
	return out
}

// InstallFrames points the given frames at the provided backing slices,
// shared copy-on-write: the slices are sealed immediately, so the first
// local write copies out and the image they came from stays immutable.
// Each slice must be exactly one page.
func (m *Memory) InstallFrames(frames []FrameData) error {
	for _, fd := range frames {
		if int(fd.F) >= m.npage {
			return fmt.Errorf("mem: InstallFrames: frame %d beyond %d pages", fd.F, m.npage)
		}
		if len(fd.Data) != hw.Page {
			return fmt.Errorf("mem: InstallFrames: frame %d backing is %d bytes, want %d", fd.F, len(fd.Data), hw.Page)
		}
		ci := fd.F >> pageChunkShift
		c := m.frames[ci]
		if c == nil {
			c = new(pageChunk)
			m.frames[ci] = c
		}
		c[fd.F&(1<<pageChunkShift-1)] = fd.Data
		m.setSealed(fd.F)
		// The contents changed without a write, so no watcher is woken,
		// but cached derivations keyed on the generation must not survive.
		if wc := m.watches[ci]; wc != nil {
			wc[fd.F&(1<<pageChunkShift-1)].gen++
		}
	}
	return nil
}

// MaterializedFrames counts frames with private or shared backing (the rest
// read as zeros for free).
func (m *Memory) MaterializedFrames() int {
	n := 0
	for _, c := range m.frames {
		if c == nil {
			continue
		}
		for _, p := range c {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// SharedFrames counts frames whose backing is currently sealed (still
// shared with an image or clone; a write would copy them out).
func (m *Memory) SharedFrames() int {
	n := 0
	for _, sc := range m.seals {
		if sc == nil {
			continue
		}
		for _, b := range sc {
			if b {
				n++
			}
		}
	}
	return n
}
