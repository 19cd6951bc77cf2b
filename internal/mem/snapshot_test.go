package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"attila/internal/chkpt"
)

// fullScanSection is GPUMemory.SnapshotState of 91dbc46, kept as the
// model: it tested every page of a flat memory image byte by byte, once
// to count the nonzero ones and once more to write them.
func fullScanSection(flat []byte) []byte {
	zero := func(b []byte) bool {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
		return true
	}
	var e chkpt.Encoder
	e.U64(uint64(len(flat)))
	count := 0
	for off := 0; off < len(flat); off += gpuMemPage {
		if !zero(flat[off:min(off+gpuMemPage, len(flat))]) {
			count++
		}
	}
	e.U32(uint32(count))
	for off := 0; off < len(flat); off += gpuMemPage {
		page := flat[off:min(off+gpuMemPage, len(flat))]
		if zero(page) {
			continue
		}
		e.U32(uint32(off / gpuMemPage))
		e.Blob(page)
	}
	return e.Bytes()
}

// modelSize is the memory the random-writes model drives: six pages
// and a short last one.
const modelSize = 6*gpuMemPage + 1000

// memModel drives a GPUMemory with random writes and mirrors each into
// a flat image, the store the memory used to be.
type memModel struct {
	m    *GPUMemory
	flat []byte
	// touched marks the pages a non-empty write reached: exactly the
	// pages that must be resident.
	touched []bool
	rng     *rand.Rand
}

func newMemModel(seed int64) *memModel {
	m := NewGPUMemory(modelSize)
	return &memModel{
		m:       m,
		flat:    make([]byte, modelSize),
		touched: make([]bool, len(m.pages)),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

func (x *memModel) mark(addr uint32, n int) {
	for p := int(addr) / gpuMemPage; n > 0 && p <= (int(addr)+n-1)/gpuMemPage; p++ {
		x.touched[p] = true
	}
}

func (x *memModel) write32(addr, v uint32) {
	x.m.Write32(addr, v)
	binary.LittleEndian.PutUint32(x.flat[addr:], v)
	x.mark(addr, 4)
}

func (x *memModel) writeBytes(addr uint32, src []byte) {
	x.m.WriteBytes(addr, src)
	copy(x.flat[addr:], src)
	x.mark(addr, len(src))
}

// boundary picks an address whose n ≥ 2 bytes start in one page and
// end in the next.
func (x *memModel) boundary(n int) uint32 {
	return uint32((1+x.rng.Intn(6))*gpuMemPage - 1 - x.rng.Intn(n-1))
}

// randomWrite is one write of the mix: short and long, across page
// boundaries, of zeros only, into the short last page.
func (x *memModel) randomWrite() {
	rng := x.rng
	switch rng.Intn(8) {
	case 0: // a word across two pages
		x.write32(x.boundary(4), rng.Uint32()|1)
	case 1: // a word of zeros
		x.write32(uint32(rng.Intn(modelSize-4)), 0)
	case 2:
		x.write32(uint32(rng.Intn(modelSize-4)), rng.Uint32())
	case 3: // bytes across two pages
		buf := make([]byte, 2+rng.Intn(300))
		rng.Read(buf)
		x.writeBytes(x.boundary(len(buf)), buf)
	case 4: // zeros only, or nothing at all
		x.writeBytes(uint32(rng.Intn(modelSize-300)), make([]byte, rng.Intn(300)))
	case 5: // more than a page
		buf := make([]byte, gpuMemPage+rng.Intn(gpuMemPage))
		rng.Read(buf)
		x.writeBytes(uint32(rng.Intn(modelSize-len(buf))), buf)
	case 6: // the very end
		buf := make([]byte, 1+rng.Intn(64))
		rng.Read(buf)
		x.writeBytes(uint32(modelSize-len(buf)), buf)
	default:
		buf := make([]byte, 1+rng.Intn(64))
		rng.Read(buf)
		x.writeBytes(uint32(rng.Intn(modelSize-len(buf))), buf)
	}
}

func (x *memModel) section() []byte {
	var e chkpt.Encoder
	x.m.SnapshotState(&e)
	return e.Bytes()
}

// restored resets the model after x.m was restored to flat: the
// resident pages are then the ones with content.
func (x *memModel) restored(flat []byte) {
	x.flat = append(x.flat[:0], flat...)
	for p := range x.touched {
		x.touched[p] = !isZero(flat[p*gpuMemPage : min((p+1)*gpuMemPage, len(flat))])
	}
}

// image reads all of m through ReadBytes.
func image(m *GPUMemory) []byte {
	b := make([]byte, m.Size())
	m.ReadBytes(0, b)
	return b
}

// checkAccess holds the memory to the model: random reads — anywhere,
// across a page boundary, starting in an absent page — and a
// straddling word read return the model's bytes, and the resident
// pages are exactly the touched ones.
func (x *memModel) checkAccess(t *testing.T, when string) {
	t.Helper()
	read := func(addr uint32, n int) {
		t.Helper()
		n = min(n, modelSize-int(addr))
		dst := bytes.Repeat([]byte{0xA5}, n) // a read must overwrite all of it
		x.m.ReadBytes(addr, dst)
		if !bytes.Equal(dst, x.flat[addr:int(addr)+n]) {
			t.Fatalf("%s: ReadBytes(%d, %d bytes) differs from the model", when, addr, n)
		}
	}
	read(uint32(x.rng.Intn(modelSize)), x.rng.Intn(300))
	read(x.boundary(300), 2+x.rng.Intn(299))
	var absent []int
	for p, pg := range x.m.pages {
		if pg == nil {
			absent = append(absent, p)
		}
	}
	if len(absent) > 0 {
		p := absent[x.rng.Intn(len(absent))]
		read(uint32(p*gpuMemPage+x.rng.Intn(min(gpuMemPage, modelSize-p*gpuMemPage))), 1+x.rng.Intn(300))
	}
	if addr := x.boundary(4); x.m.Read32(addr) != binary.LittleEndian.Uint32(x.flat[addr:]) {
		t.Fatalf("%s: straddling Read32(%d) differs from the model", when, addr)
	}
	for p, pg := range x.m.pages {
		if (pg != nil) != x.touched[p] {
			t.Fatalf("%s: page %d resident %v, touched by a write %v", when, p, pg != nil, x.touched[p])
		}
	}
}

// The snapshot visits only the pages allocated. Under random writes —
// short and long, across page boundaries, of zeros only, into the
// short last page — it must write the section the scan of the flat
// model wrote; the same again after the memory is restored from an
// earlier section and written further, and in a fresh memory restored
// from the last one. After every write, reads must return the model's
// bytes and the resident pages must be the ones written.
func TestSnapshotMatchesFullScan(t *testing.T) {
	x := newMemModel(1)
	check := func(when string) []byte {
		t.Helper()
		x.checkAccess(t, when)
		sec := x.section()
		if !bytes.Equal(sec, fullScanSection(x.flat)) {
			t.Fatalf("%s: section differs from the full scan's", when)
		}
		return sec
	}

	check("untouched")
	// A word whose two low bytes end one page and two high bytes start
	// the next, on pages nothing else has written yet.
	x.write32(3*gpuMemPage-2, 0x01020304)
	check("one straddling word")
	for i := 0; i < 40; i++ {
		x.randomWrite()
		x.checkAccess(t, "first writes")
	}
	early := check("40 writes")
	earlyFlat := append([]byte(nil), x.flat...)
	for i := 0; i < 400; i++ {
		x.randomWrite()
		x.checkAccess(t, "writing")
		if i%50 == 0 {
			check("writing")
		}
	}
	check("440 writes")

	if err := x.m.RestoreState(chkpt.NewDecoder(early)); err != nil {
		t.Fatal(err)
	}
	x.restored(earlyFlat)
	if got := check("restored"); !bytes.Equal(got, early) {
		t.Fatal("restored memory does not snapshot to the section it was restored from")
	}
	for i := 0; i < 200; i++ {
		x.randomWrite()
		x.checkAccess(t, "restored and writing")
	}
	late := check("restored and written")

	fresh := NewGPUMemory(modelSize)
	if err := fresh.RestoreState(chkpt.NewDecoder(late)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(fresh), x.flat) {
		t.Fatal("a fresh memory restored from the section differs from the one that wrote it")
	}
	x.m = fresh
	x.restored(x.flat)
	check("fresh restore")
}

// FuzzGPUMemoryRestore feeds arbitrary bytes to the mem.GPU section
// decoder, seeded with sections of the random-writes model. It must
// never panic and fail only typed; a section it accepts must leave no
// more pages resident than it names, and must snapshot again to a
// section that restores to the same image.
func FuzzGPUMemoryRestore(f *testing.F) {
	x := newMemModel(2)
	f.Add(x.section())
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			x.randomWrite()
		}
		f.Add(x.section())
	}
	sec := x.section()
	f.Add(sec[:len(sec)/2])
	f.Add(sec[:12])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewGPUMemory(modelSize)
		d := chkpt.NewDecoder(data)
		if err := m.RestoreState(d); err != nil {
			if !errors.Is(err, chkpt.ErrCorrupt) && !errors.Is(err, chkpt.ErrMismatch) &&
				(d.Err() == nil || !errors.Is(err, d.Err())) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		resident := 0
		for _, pg := range m.pages {
			if pg != nil {
				resident++
			}
		}
		if named := int(binary.LittleEndian.Uint32(data[8:])); resident > named {
			t.Fatalf("%d pages resident, the section names %d", resident, named)
		}
		var e chkpt.Encoder
		m.SnapshotState(&e)
		again := NewGPUMemory(modelSize)
		if err := again.RestoreState(chkpt.NewDecoder(e.Bytes())); err != nil {
			t.Fatalf("restoring the re-snapshot: %v", err)
		}
		if !bytes.Equal(image(again), image(m)) {
			t.Fatal("the re-snapshot restores to another image")
		}
	})
}
