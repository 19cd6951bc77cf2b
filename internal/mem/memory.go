// Package mem models the GPU memory system (paper §2.2): a flat GDDR
// memory backing store, a memory controller with multiple interleaved
// channels, page-hit timing and read/write turnaround penalties, a
// crossbar of per-unit request queues, and the generic timing cache
// used to build the texture, Z and color caches (Table 2), including
// the fast-clear and compressed-line states.
package mem

import "fmt"

// TransactionSize is the memory access unit: a 64-byte transaction
// (4-cycle transfer from a double-rate 64-bit DDR channel, paper
// §2.2). Compressed lines issue smaller 16/32-byte transactions.
const TransactionSize = 64

// GPUMemory is the flat GDDR backing store. It is shared by the
// timing memory controller and the functional paths (the reference
// renderer and the DAC verification dump read it directly).
type GPUMemory struct {
	data []byte
	// written has bit p set once anything was written to page p (see
	// gpuMemPage): an unmarked page is all zero, so a snapshot visits
	// marked pages only. WriteBytes, Write32 and RestoreState are the
	// only writers of data, and each marks what it writes.
	written []uint64
}

// NewGPUMemory allocates size bytes of GPU memory.
func NewGPUMemory(size int) *GPUMemory {
	pages := (size + gpuMemPage - 1) / gpuMemPage
	return &GPUMemory{data: make([]byte, size), written: make([]uint64, (pages+63)/64)}
}

// touch marks the pages of the n > 0 bytes at addr as written.
func (m *GPUMemory) touch(addr uint32, n int) {
	last := (addr + uint32(n) - 1) / gpuMemPage
	for p := addr / gpuMemPage; p <= last; p++ {
		m.written[p>>6] |= 1 << (p & 63)
	}
}

// Size returns the memory capacity in bytes.
func (m *GPUMemory) Size() int { return len(m.data) }

func (m *GPUMemory) check(addr uint32, n int) {
	if int(addr)+n > len(m.data) {
		panic(fmt.Sprintf("mem: access [%d, %d) beyond %d-byte memory", addr, int(addr)+n, len(m.data)))
	}
}

// ReadBytes copies memory into dst (implements texemu.MemReader).
func (m *GPUMemory) ReadBytes(addr uint32, dst []byte) {
	m.check(addr, len(dst))
	copy(dst, m.data[addr:])
}

// WriteBytes copies src into memory.
func (m *GPUMemory) WriteBytes(addr uint32, src []byte) {
	m.check(addr, len(src))
	if len(src) == 0 {
		return
	}
	m.touch(addr, len(src))
	copy(m.data[addr:], src)
}

// Read32 reads a little-endian 32-bit word.
func (m *GPUMemory) Read32(addr uint32) uint32 {
	m.check(addr, 4)
	return uint32(m.data[addr]) | uint32(m.data[addr+1])<<8 |
		uint32(m.data[addr+2])<<16 | uint32(m.data[addr+3])<<24
}

// Write32 writes a little-endian 32-bit word.
func (m *GPUMemory) Write32(addr uint32, v uint32) {
	m.check(addr, 4)
	m.touch(addr, 4)
	m.data[addr] = byte(v)
	m.data[addr+1] = byte(v >> 8)
	m.data[addr+2] = byte(v >> 16)
	m.data[addr+3] = byte(v >> 24)
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

// Alloc reserves n bytes aligned to align (power of two) and returns
// the base address.
func (a *Allocator) Alloc(n int, align uint32) (uint32, error) {
	if align == 0 {
		align = 1
	}
	base := (a.next + align - 1) &^ (align - 1)
	if base+uint32(n) > a.size {
		return 0, fmt.Errorf("mem: out of GPU memory (want %d bytes at %d, limit %d)", n, base, a.size)
	}
	a.next = base + uint32(n)
	return base, nil
}
