package mem

import (
	"encoding/binary"
	"fmt"

	"attila/internal/chkpt"
)

// This file implements chkpt.Snapshotter for the memory system. All
// snapshots are taken at a quiesced cycle barrier: no client queue
// holds a request, no channel has a transaction in flight, and every
// cache has neither misses nor outstanding port transactions — so the
// persistent state is the memory image, the allocator cursor, the
// controller's page/turnaround registers, and the cache line arrays.

// SnapshotName implements chkpt.Snapshotter.
func (m *GPUMemory) SnapshotName() string { return "mem.GPU" }

// SnapshotState writes the memory image sparsely: total size, then
// (pageIndex, bytes) for every page with nonzero content. Only
// allocated pages can have any, so the cost follows what the run
// wrote, not the memory's size; a page written with zeros alone is
// still left out.
func (m *GPUMemory) SnapshotState(e *chkpt.Encoder) {
	var nonzero []int
	for idx, pg := range m.pages {
		if pg != nil && !isZero(pg) {
			nonzero = append(nonzero, idx)
		}
	}
	e.Grow(8 + 4 + len(nonzero)*(4+4+gpuMemPage))
	e.U64(uint64(m.size))
	e.U32(uint32(len(nonzero)))
	for _, idx := range nonzero {
		e.U32(uint32(idx))
		e.Blob(m.pages[idx])
	}
}

// RestoreState implements chkpt.Snapshotter.
func (m *GPUMemory) RestoreState(d *chkpt.Decoder) error {
	size := d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if size != uint64(m.size) {
		return fmt.Errorf("%w: snapshot memory is %d bytes, machine has %d", chkpt.ErrMismatch, size, m.size)
	}
	if n > len(m.pages) {
		return fmt.Errorf("%w: %d pages exceeds the %d-page memory", chkpt.ErrCorrupt, n, len(m.pages))
	}
	clear(m.pages) // back to all zero
	for i := 0; i < n; i++ {
		idx := int(d.U32())
		page := d.Blob()
		if err := d.Err(); err != nil {
			return err
		}
		off := idx * gpuMemPage
		if idx >= len(m.pages) || off+len(page) > m.size || len(page) > gpuMemPage {
			return fmt.Errorf("%w: page %d/%d bytes outside memory", chkpt.ErrCorrupt, idx, len(page))
		}
		m.WriteBytes(uint32(off), page)
	}
	return nil
}

// isZero tests eight bytes at a time.
func isZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// SnapshotName implements chkpt.Snapshotter.
func (a *Allocator) SnapshotName() string { return "mem.Alloc" }

// SnapshotState implements chkpt.Snapshotter.
func (a *Allocator) SnapshotState(e *chkpt.Encoder) {
	e.U32(a.next)
	e.U32(a.size)
}

// RestoreState implements chkpt.Snapshotter.
func (a *Allocator) RestoreState(d *chkpt.Decoder) error {
	next := d.U32()
	size := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	if size != a.size {
		return fmt.Errorf("%w: allocator arena is %d in snapshot, %d in machine", chkpt.ErrMismatch, size, a.size)
	}
	a.next = next
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (c *Controller) SnapshotName() string { return "MemoryController" }

// SnapshotState serializes the arbitration pointer and the per-channel
// page/turnaround registers. Queues and in-flight transactions are
// empty by the quiesce precondition (Pending() == false); byte
// counters live in the statistics section.
func (c *Controller) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(c.rr))
	e.U32(uint32(len(c.chans)))
	for i := range c.chans {
		ch := &c.chans[i]
		e.U32(ch.openPage)
		e.Bool(ch.hasPage)
		e.U8(uint8(ch.lastOp))
		e.Bool(ch.issued)
	}
}

// RestoreState implements chkpt.Snapshotter.
func (c *Controller) RestoreState(d *chkpt.Decoder) error {
	rr := int(d.U32())
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(c.chans) {
		return fmt.Errorf("%w: snapshot has %d channels, machine has %d", chkpt.ErrMismatch, n, len(c.chans))
	}
	if rr < 0 || rr >= len(c.clients) {
		return fmt.Errorf("%w: arbitration pointer %d outside %d clients", chkpt.ErrCorrupt, rr, len(c.clients))
	}
	for i := 0; i < n; i++ {
		ch := &c.chans[i]
		ch.openPage = d.U32()
		ch.hasPage = d.Bool()
		ch.lastOp = Op(d.U8())
		ch.issued = d.Bool()
		ch.active = false
	}
	if err := d.Err(); err != nil {
		return err
	}
	c.rr = rr
	return nil
}

// SnapshotTo serializes the cache's line array into the owner's
// section: per line valid/dirty/key/lastUse plus the decoded data of
// valid lines. The owner calls it at a quiesced barrier (no misses,
// no outstanding transactions).
func (c *Cache) SnapshotTo(e *chkpt.Encoder) {
	e.U32(uint32(c.cfg.Sets))
	e.U32(uint32(c.cfg.Assoc))
	e.U32(uint32(c.cfg.LineBytes))
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			e.Bool(ln.valid)
			e.Bool(ln.dirty)
			e.U32(ln.key)
			e.I64(ln.lastUse)
			if ln.valid {
				e.Blob(ln.data)
			}
		}
	}
}

// RestoreFrom rebuilds the line array from SnapshotTo's encoding.
func (c *Cache) RestoreFrom(d *chkpt.Decoder) error {
	sets := int(d.U32())
	assoc := int(d.U32())
	lineBytes := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if sets != c.cfg.Sets || assoc != c.cfg.Assoc || lineBytes != c.cfg.LineBytes {
		return fmt.Errorf("%w: cache %s geometry %dx%dx%d in snapshot, %dx%dx%d in machine",
			chkpt.ErrMismatch, c.cfg.Name, sets, assoc, lineBytes, c.cfg.Sets, c.cfg.Assoc, c.cfg.LineBytes)
	}
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			ln.valid = d.Bool()
			ln.dirty = d.Bool()
			ln.key = d.U32()
			ln.lastUse = d.I64()
			ln.pending = false
			ln.flushNeed = 0
			if ln.valid {
				data := d.Blob()
				if d.Err() == nil && len(data) != c.cfg.LineBytes {
					return fmt.Errorf("%w: cache %s line has %d bytes, want %d",
						chkpt.ErrCorrupt, c.cfg.Name, len(data), c.cfg.LineBytes)
				}
				copy(ln.data, data)
			} else {
				for i := range ln.data {
					ln.data[i] = 0
				}
			}
			if err := d.Err(); err != nil {
				return err
			}
		}
	}
	c.miss = c.miss[:0]
	for id := range c.waiting {
		delete(c.waiting, id)
	}
	return nil
}
