// Package mem models the GPU memory system (paper §2.2): a GDDR memory
// backing store, a memory controller with multiple interleaved
// channels, page-hit timing and read/write turnaround penalties, a
// crossbar of per-unit request queues, and the generic timing cache
// used to build the texture, Z and color caches (Table 2), including
// the fast-clear and compressed-line states.
package mem

import (
	"encoding/binary"
	"fmt"
)

// TransactionSize is the memory access unit: a 64-byte transaction
// (4-cycle transfer from a double-rate 64-bit DDR channel, paper
// §2.2). Compressed lines issue smaller 16/32-byte transactions.
const TransactionSize = 64

// gpuMemPage is the granule memory is allocated in and the snapshot
// writes: 64 KiB.
const gpuMemPage = 64 << 10

// GPUMemory is the GDDR backing store. It is shared by the timing
// memory controller and the functional paths (the reference renderer
// and the DAC verification dump read it directly).
//
// It is held as a table of gpuMemPage pages, each allocated on its
// first write: a run touches a few of the 1024 pages of a 64 MiB
// machine, and a nil page reads as zero. WriteBytes and Write32 are
// the only allocators; a read or an empty write never allocates.
type GPUMemory struct {
	size  int
	pages [][]byte // page p holds [p*gpuMemPage, ...); the last may be short
}

// NewGPUMemory returns size bytes of GPU memory, all zero. Nothing is
// allocated for the contents until they are written.
func NewGPUMemory(size int) *GPUMemory {
	return &GPUMemory{size: size, pages: make([][]byte, (size+gpuMemPage-1)/gpuMemPage)}
}

// Size returns the memory capacity in bytes.
func (m *GPUMemory) Size() int { return m.size }

// check is small enough to inline into every accessor; the panic's
// formatting stays out of line.
func (m *GPUMemory) check(addr uint32, n int) {
	if int(addr)+n > m.size {
		m.outOfRange(addr, n)
	}
}

//go:noinline
func (m *GPUMemory) outOfRange(addr uint32, n int) {
	panic(fmt.Sprintf("mem: access [%d, %d) beyond %d-byte memory", addr, int(addr)+n, m.size))
}

// alloc allocates page p, zeroed; the last page is only as long as
// the memory.
func (m *GPUMemory) alloc(p uint32) []byte {
	pg := make([]byte, min(gpuMemPage, m.size-int(p)*gpuMemPage))
	m.pages[p] = pg
	return pg
}

// ReadBytes copies memory into dst (implements texemu.MemReader).
func (m *GPUMemory) ReadBytes(addr uint32, dst []byte) {
	m.check(addr, len(dst))
	off := int(addr % gpuMemPage)
	if off+len(dst) <= gpuMemPage { // every controller transaction, nearly every fetch
		if pg := m.pages[addr/gpuMemPage]; pg != nil {
			copy(dst, pg[off:])
		} else {
			clear(dst)
		}
		return
	}
	for len(dst) > 0 {
		off := int(addr % gpuMemPage)
		n := min(len(dst), gpuMemPage-off)
		if pg := m.pages[addr/gpuMemPage]; pg != nil {
			copy(dst[:n], pg[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteBytes copies src into memory; a write within one page is one
// pass of the loop.
func (m *GPUMemory) WriteBytes(addr uint32, src []byte) {
	m.check(addr, len(src))
	for len(src) > 0 {
		pg := m.pages[addr/gpuMemPage]
		if pg == nil {
			pg = m.alloc(addr / gpuMemPage)
		}
		n := copy(pg[addr%gpuMemPage:], src)
		src = src[n:]
		addr += uint32(n)
	}
}

// Read32 reads a little-endian 32-bit word.
func (m *GPUMemory) Read32(addr uint32) uint32 {
	m.check(addr, 4)
	if off := addr % gpuMemPage; off <= gpuMemPage-4 {
		if pg := m.pages[addr/gpuMemPage]; pg != nil {
			return binary.LittleEndian.Uint32(pg[off:])
		}
		return 0
	}
	var b [4]byte // the word straddles two pages
	m.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian 32-bit word.
func (m *GPUMemory) Write32(addr uint32, v uint32) {
	m.check(addr, 4)
	if off := addr % gpuMemPage; off <= gpuMemPage-4 {
		pg := m.pages[addr/gpuMemPage]
		if pg == nil {
			pg = m.alloc(addr / gpuMemPage)
		}
		binary.LittleEndian.PutUint32(pg[off:], v)
		return
	}
	var b [4]byte // the word straddles two pages
	binary.LittleEndian.PutUint32(b[:], v)
	m.WriteBytes(addr, b[:])
}

// Allocator hands out GPU memory regions; the driver layer uses it
// for buffer, texture and framebuffer placement. Alignment keeps
// framebuffer tiles on transaction boundaries.
type Allocator struct {
	next uint32
	size uint32
}

// NewAllocator manages [base, base+size).
func NewAllocator(base, size uint32) *Allocator {
	return &Allocator{next: base, size: base + size}
}

// Alloc reserves n bytes aligned to align (a power of two; 0 means 1)
// and returns the base address. A failed call reserves nothing.
func (a *Allocator) Alloc(n int, align uint32) (uint32, error) {
	if align == 0 {
		align = 1
	}
	if n < 0 {
		return 0, fmt.Errorf("mem: negative allocation size %d", n)
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	// In 64 bits: neither the rounding nor the end may wrap.
	base := (uint64(a.next) + uint64(align) - 1) &^ uint64(align-1)
	if base+uint64(n) > uint64(a.size) {
		return 0, fmt.Errorf("mem: out of GPU memory (want %d bytes at %d, limit %d)", n, base, a.size)
	}
	a.next = uint32(base + uint64(n))
	return uint32(base), nil
}
