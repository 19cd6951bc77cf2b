package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"attila/internal/chkpt"
)

// fullScanSection is GPUMemory.SnapshotState of 91dbc46, kept as the
// model: it tested every page of the memory byte by byte, once to count
// the nonzero ones and once more to write them.
func fullScanSection(m *GPUMemory) []byte {
	zero := func(b []byte) bool {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
		return true
	}
	var e chkpt.Encoder
	e.U64(uint64(len(m.data)))
	count := 0
	for off := 0; off < len(m.data); off += gpuMemPage {
		if !zero(m.data[off:min(off+gpuMemPage, len(m.data))]) {
			count++
		}
	}
	e.U32(uint32(count))
	for off := 0; off < len(m.data); off += gpuMemPage {
		page := m.data[off:min(off+gpuMemPage, len(m.data))]
		if zero(page) {
			continue
		}
		e.U32(uint32(off / gpuMemPage))
		e.Blob(page)
	}
	return e.Bytes()
}

// The snapshot visits only the pages marked written. Under random
// writes — short and long, across page boundaries, of zeros only, into
// the short last page — it must write the section the scan of all of
// memory wrote, and no page with content may be unmarked; the same
// again after the memory is restored from an earlier section and
// written further, and in a fresh memory restored from the last one.
func TestSnapshotMatchesFullScan(t *testing.T) {
	const size = 6*gpuMemPage + 1000 // the last page is short
	rng := rand.New(rand.NewSource(1))
	m := NewGPUMemory(size)

	check := func(when string) []byte {
		t.Helper()
		var e chkpt.Encoder
		m.SnapshotState(&e)
		if !bytes.Equal(e.Bytes(), fullScanSection(m)) {
			t.Fatalf("%s: section differs from the full scan's", when)
		}
		for idx := 0; idx*gpuMemPage < size; idx++ {
			if !isZero(m.page(idx)) && m.written[idx>>6]&(1<<(idx&63)) == 0 {
				t.Fatalf("%s: page %d has content and is not marked", when, idx)
			}
		}
		return e.Bytes()
	}
	// boundary picks an address whose n bytes start in one page and end
	// in the next.
	boundary := func(n int) uint32 {
		return uint32((1+rng.Intn(6))*gpuMemPage - 1 - rng.Intn(n-1))
	}
	write := func() {
		switch rng.Intn(8) {
		case 0: // a word across two pages
			m.Write32(boundary(4), rng.Uint32()|1)
		case 1: // a word of zeros
			m.Write32(uint32(rng.Intn(size-4)), 0)
		case 2:
			m.Write32(uint32(rng.Intn(size-4)), rng.Uint32())
		case 3: // bytes across two pages
			buf := make([]byte, 2+rng.Intn(300))
			rng.Read(buf)
			m.WriteBytes(boundary(len(buf)), buf)
		case 4: // zeros only, or nothing at all
			m.WriteBytes(uint32(rng.Intn(size-300)), make([]byte, rng.Intn(300)))
		case 5: // more than a page
			buf := make([]byte, gpuMemPage+rng.Intn(gpuMemPage))
			rng.Read(buf)
			m.WriteBytes(uint32(rng.Intn(size-len(buf))), buf)
		case 6: // the very end
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			m.WriteBytes(uint32(size-len(buf)), buf)
		default:
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			m.WriteBytes(uint32(rng.Intn(size-len(buf))), buf)
		}
	}

	check("untouched")
	// A word whose two low bytes end one page and two high bytes start
	// the next, on pages nothing else has written yet.
	m.Write32(3*gpuMemPage-2, 0x01020304)
	check("one straddling word")
	for i := 0; i < 40; i++ {
		write()
	}
	early := check("40 writes")
	for i := 0; i < 400; i++ {
		write()
		if i%50 == 0 {
			check("writing")
		}
	}
	check("440 writes")

	if err := m.RestoreState(chkpt.NewDecoder(early)); err != nil {
		t.Fatal(err)
	}
	if got := check("restored"); !bytes.Equal(got, early) {
		t.Fatal("restored memory does not snapshot to the section it was restored from")
	}
	for i := 0; i < 200; i++ {
		write()
	}
	late := check("restored and written")

	fresh := NewGPUMemory(size)
	if err := fresh.RestoreState(chkpt.NewDecoder(late)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.data, m.data) {
		t.Fatal("a fresh memory restored from the section differs from the one that wrote it")
	}
	m = fresh
	check("fresh restore")
}
