package mem

import "testing"

// BenchmarkGPUMemoryAccess times the accessors on the paths the
// simulator takes: the controller's 64-byte aligned transaction
// (complete), the reference renderer's per-pixel depth and colour word,
// and a 300-byte read that crosses a page, as a Streamer fetch can. The
// addresses walk 1 MiB of a 64 MiB memory, written once beforehand.
func BenchmarkGPUMemoryAccess(b *testing.B) {
	const span = 1 << 20
	m := NewGPUMemory(64 << 20)
	m.WriteBytes(0, make([]byte, span+gpuMemPage))
	buf := make([]byte, 300)
	b.Run("ReadBytes64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ReadBytes(uint32(i*TransactionSize)%span, buf[:TransactionSize])
		}
	})
	b.Run("WriteBytes64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.WriteBytes(uint32(i*TransactionSize)%span, buf[:TransactionSize])
		}
	})
	b.Run("Read32Write32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addr := uint32(i*4) % span
			m.Write32(addr, m.Read32(addr)+1)
		}
	})
	b.Run("ReadBytes300Crossing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			page := uint32(1+i%(span/gpuMemPage)) * gpuMemPage
			m.ReadBytes(page-150, buf)
		}
	})
}
