package chkpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fakePart is a Snapshotter over a few fields of every codec type.
type fakePart struct {
	name  string
	a     int64
	b     uint32
	c     bool
	d     float64
	blob  []byte
	fs    []float64
	label string
}

func (f *fakePart) SnapshotName() string { return f.name }

func (f *fakePart) SnapshotState(e *Encoder) {
	e.I64(f.a)
	e.U32(f.b)
	e.Bool(f.c)
	e.F64(f.d)
	e.Blob(f.blob)
	e.F64s(f.fs)
	e.Str(f.label)
}

func (f *fakePart) RestoreState(d *Decoder) error {
	f.a = d.I64()
	f.b = d.U32()
	f.c = d.Bool()
	f.d = d.F64()
	f.blob = d.Blob()
	f.fs = d.F64s()
	f.label = d.Str()
	return d.Err()
}

func testParts() []Snapshotter {
	return []Snapshotter{
		&fakePart{name: "alpha", a: -7, b: 42, c: true, d: 3.5, blob: []byte{1, 2, 3}, fs: []float64{1, 2.5}, label: "hello"},
		&fakePart{name: "beta", a: 1 << 40, blob: []byte{}, label: ""},
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	meta := Meta{Cycle: 12345, Config: "cfg-A", Workload: "wl-B"}
	src := testParts()
	snap := Capture(meta, src)

	dst := []Snapshotter{
		&fakePart{name: "alpha"},
		&fakePart{name: "beta"},
	}
	if err := Restore(snap, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		want, got := src[i].(*fakePart), dst[i].(*fakePart)
		if want.a != got.a || want.b != got.b || want.c != got.c || want.d != got.d ||
			!bytes.Equal(want.blob, got.blob) || want.label != got.label {
			t.Errorf("part %s: restored %+v, want %+v", want.name, got, want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	meta := Meta{Cycle: 99, Config: "c", Workload: "w"}
	snap := Capture(meta, testParts())
	path := filepath.Join(t.TempDir(), "test.ckpt")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("meta %+v, want %+v", got.Meta, meta)
	}
	for _, name := range snap.Sections() {
		if !bytes.Equal(got.Section(name), snap.Section(name)) {
			t.Errorf("section %q differs after round trip", name)
		}
	}
}

func TestRestoreMismatch(t *testing.T) {
	snap := Capture(Meta{}, testParts())
	// A part with no matching section must fail.
	err := Restore(snap, []Snapshotter{&fakePart{name: "gamma"}})
	if !errors.Is(err, ErrMismatch) {
		t.Errorf("missing section: got %v, want ErrMismatch", err)
	}
	// A section no part claims is ignored.
	if err := Restore(snap, []Snapshotter{&fakePart{name: "alpha"}}); err != nil {
		t.Errorf("extra section: got %v, want nil", err)
	}
}

func TestReadTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Capture(Meta{Cycle: 1}, testParts()).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := Read(bytes.NewReader(data))
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}

	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	check("bad magic", badMagic, ErrFormat)

	// The gzipped versions 1 and 2 are refused like any other.
	for _, v := range []uint32{1, 2, 4, 0xEE} {
		check(fmt.Sprintf("version %d", v), withVersion(valid, v), ErrFormat)
	}

	// The payload is written as it is: a flipped byte fails the CRC, a
	// file cut inside it or one that runs on past it fails typed.
	badPayload := append([]byte(nil), valid...)
	badPayload[len(badPayload)-5] ^= 0x01
	check("damaged payload", badPayload, ErrCorrupt)
	if _, err := Read(bytes.NewReader(badPayload)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("damaged payload: got %v, want a CRC mismatch", err)
	}

	check("cut header", valid[:8], ErrTruncated)
	check("cut payload", valid[:len(valid)-1], ErrTruncated)
	check("trailing byte", append(append([]byte(nil), valid...), 0), ErrCorrupt)

	hugeLen := append([]byte(nil), valid...)
	for i := 0; i < 8; i++ {
		hugeLen[len(magic)+8+i] = 0xFF
	}
	check("huge declared payload", hugeLen, ErrCorrupt)
}

func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if v := d.U64(); v != 0 {
		t.Errorf("truncated U64 = %d, want 0", v)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", d.Err())
	}
	// Every later read stays zero without disturbing the first error.
	if d.U32() != 0 || d.Bool() || d.Str() != "" || d.Blob() != nil {
		t.Error("reads after failure should return zero values")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("err after more reads = %v, want the original ErrTruncated", d.Err())
	}
}

func TestDecoderBlobCap(t *testing.T) {
	var e Encoder
	e.U32(maxBlob + 1)
	d := NewDecoder(e.Bytes())
	if b := d.Blob(); b != nil {
		t.Errorf("oversized blob = %d bytes, want nil", len(b))
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", d.Err())
	}
}

func TestEngine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eng.ckpt")
	quiesced := false
	captures := 0
	eng := &Engine{
		Interval: 100,
		Path:     path,
		Quiesced: func() bool { return quiesced },
		Capture: func() (*Snapshot, error) {
			captures++
			return Capture(Meta{Cycle: int64(captures)}, testParts()), nil
		},
	}
	// Below the interval: never fires, quiesced or not.
	quiesced = true
	for c := int64(0); c < 100; c++ {
		eng.EndCycle(c)
	}
	if eng.Count() != 0 {
		t.Fatalf("fired %d times below interval", eng.Count())
	}
	// At the interval but not quiesced: holds off.
	quiesced = false
	eng.EndCycle(100)
	if eng.Count() != 0 {
		t.Fatal("fired while not quiesced")
	}
	// First quiesced barrier past the interval: fires exactly once.
	quiesced = true
	eng.EndCycle(101)
	eng.EndCycle(102)
	if eng.Count() != 1 || eng.LastCycle() != 101 {
		t.Fatalf("count %d last %d, want 1 at cycle 101", eng.Count(), eng.LastCycle())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	// A write failure surfaces in Err without stopping anything. A
	// merely missing directory no longer fails (WriteFile recreates
	// it); a regular file blocking the path still does.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng.Path = filepath.Join(blocker, "x.ckpt")
	eng.EndCycle(300)
	if eng.Err() == nil {
		t.Fatal("expected a write error for an unwritable path")
	}
	if eng.Count() != 1 {
		t.Fatalf("failed write still counted: %d", eng.Count())
	}
}

// ForceNext must capture at the next eligible quiesced barrier even
// when the interval has not elapsed, stay armed across refused or
// failed cycles, and disarm only once a capture lands.
func TestEngineForceNext(t *testing.T) {
	dir := t.TempDir()
	quiesced := false
	eng := &Engine{
		Interval: 1_000_000,
		Path:     filepath.Join(dir, "force.ckpt"),
		Quiesced: func() bool { return quiesced },
		Capture: func() (*Snapshot, error) {
			return Capture(Meta{Cycle: 1}, testParts()), nil
		},
	}
	eng.EndCycle(10)
	if eng.Count() != 0 {
		t.Fatal("fired below interval without a force request")
	}
	eng.ForceNext()
	eng.EndCycle(11) // not quiesced: stays armed
	if eng.Count() != 0 {
		t.Fatal("forced capture fired while not quiesced")
	}
	quiesced = true
	eng.EndCycle(12)
	if eng.Count() != 1 || eng.LastCycle() != 12 {
		t.Fatalf("count %d last %d, want forced capture at cycle 12", eng.Count(), eng.LastCycle())
	}
	// Disarmed: the next quiesced barrier below the interval is quiet.
	eng.EndCycle(13)
	if eng.Count() != 1 {
		t.Fatal("force request did not disarm after capturing")
	}
}

// FuzzRead feeds arbitrary bytes to the checkpoint reader: it must
// return a typed error or a valid snapshot, never panic, and never
// allocate beyond the caps regardless of what length fields claim.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Capture(Meta{Cycle: 7, Config: "cfg", Workload: "wl"}, testParts()).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	// Version 3 as Encode writes it, and the same file with its version
	// word patched to the gzipped versions 1 and 2 and to a future 4:
	// those, and any other version, must fail with ErrFormat.
	files := [][]byte{buf.Bytes()}
	for _, v := range []uint32{1, 2, 4} {
		files = append(files, withVersion(buf.Bytes(), v))
	}
	for _, valid := range files {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		for i := 0; i < len(valid); i += 7 {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err == nil {
			// A parsed snapshot must survive re-encoding.
			var out bytes.Buffer
			if err := snap.Encode(&out); err != nil {
				t.Fatalf("re-encode of accepted snapshot failed: %v", err)
			}
			return
		}
		if len(data) >= len(magic)+4+4+8 && string(data[:len(magic)]) == magic &&
			binary.LittleEndian.Uint32(data[len(magic):]) != version && !errors.Is(err, ErrFormat) {
			t.Fatalf("a version-%d file: got %v, want ErrFormat", binary.LittleEndian.Uint32(data[len(magic):]), err)
		}
		for _, want := range []error{ErrFormat, ErrCorrupt, ErrTruncated} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("untyped error %v (%T)", err, err)
	})
}

// FuzzDecoder drives the section codec with arbitrary bytes through
// every read method; the sticky error must always be typed.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.I64(-1)
	e.U32(7)
	e.Bool(true)
	e.F64(2.5)
	e.Blob([]byte("abc"))
	e.F64s([]float64{1, 2, 3})
	e.Str("tail")
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		d.I64()
		d.U32()
		d.Bool()
		d.F64()
		d.Blob()
		d.F64s()
		d.Str()
		if err := d.Err(); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("untyped decoder error %v", err)
		}
	})
}

// withVersion returns a copy of file with its version word set to v.
func withVersion(file []byte, v uint32) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[len(magic):], v)
	return out
}

// concatEncode is the model of Snapshot.Encode: it assembles the whole
// payload in one buffer, takes its CRC, and writes header and payload.
func concatEncode(s *Snapshot) []byte {
	var payload Encoder
	payload.I64(s.Meta.Cycle)
	payload.Str(s.Meta.Config)
	payload.Str(s.Meta.Workload)
	payload.U32(uint32(len(s.order)))
	for _, name := range s.order {
		payload.Str(name)
		payload.Blob(s.sections[name])
	}
	raw := payload.Bytes()

	var hdr [len(magic) + 4 + 4 + 8]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.Checksum(raw, crcTable))
	binary.LittleEndian.PutUint64(hdr[len(magic)+8:], uint64(len(raw)))
	return append(hdr[:], raw...)
}

// Encode writes the payload piece by piece, each section straight from
// its buffer. The file must not show it: the same bytes as the
// assembled payload, over sections that are empty, tiny and long.
func TestEncodeMatchesConcatenatedPayload(t *testing.T) {
	noise := make([]byte, 300_000)
	state := uint32(1)
	for i := range noise {
		state = state*1664525 + 1013904223
		noise[i] = byte(state >> 24)
	}
	for _, sections := range [][][]byte{
		nil,
		{{}},
		{{1}, {}, {2, 3}},
		{make([]byte, 200_000), noise, []byte("tail")},
		{noise[:65535], {}, noise[:65536], make([]byte, 65537), noise[:1]},
	} {
		snap := NewSnapshot(Meta{Cycle: 123456, Config: "64x48 {Name:baseline}", Workload: "ut2004"})
		for i, data := range sections {
			snap.Add(string(rune('a'+i))+".section", data)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if want := concatEncode(snap); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%d sections: Encode wrote %d bytes, the concatenating Encode %d, or they differ", len(sections), buf.Len(), len(want))
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("%d sections: %v", len(sections), err)
		}
	}
}

// Encode allocates its pieces and the run of prefixes, nothing in
// proportion to the sections: encoding a snapshot with a 1 MB section
// allocates under 64 KiB. It is measured
// right after two collections, which leave nothing in any pool (a pool
// keeps what it holds through one), so a compressor kept between calls
// would show here too.
func TestEncodeAllocatesLittle(t *testing.T) {
	snap := Capture(Meta{Cycle: 1, Config: "c", Workload: "w"}, append(testParts(), &framesPart{frames: [][]byte{make([]byte, 1<<20)}}))
	if err := snap.Encode(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := snap.Encode(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 64<<10 {
		t.Errorf("an Encode allocates %d bytes, want under 64 KiB", n)
	}
}

// Read holds the payload once: every section is a window of the
// buffer it reads the payload into, so reading 20 sections of 30 kB
// allocates under 1.2 times the payload. The sections are capped
// windows (an append to one cannot reach the next) and hold the bytes
// Encode wrote.
func TestReadHoldsThePayloadOnce(t *testing.T) {
	snap := NewSnapshot(Meta{Cycle: 9, Config: "c", Workload: "w"})
	want := make([][]byte, 20)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i), byte(i * 7)}, 15_000)
		snap.Add(strings.Repeat("s", i+1), want[i])
	}
	var file bytes.Buffer
	if err := snap.Encode(&file); err != nil {
		t.Fatal(err)
	}
	payload := file.Len() - (len(magic) + 4 + 4 + 8)

	var got *Snapshot
	least := uint64(1 << 62)
	for try := 0; try < 3; try++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var err error
		got, err = Read(bytes.NewReader(file.Bytes()))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if limit := uint64(payload) * 12 / 10; least >= limit {
		t.Errorf("a Read of a %d-byte payload allocates %d bytes, want under %d", payload, least, limit)
	}
	for i, name := range got.Sections() {
		sec := got.Section(name)
		if !bytes.Equal(sec, want[i]) {
			t.Fatalf("section %q: bytes differ from the encoded ones", name)
		}
		if cap(sec) != len(sec) {
			t.Fatalf("section %q: capacity %d past its %d bytes", name, cap(sec), len(sec))
		}
	}
}

// framesPart is a Snapshotter shaped like the DAC's section: a count,
// then every frame dumped so far, its encoder sized for all of them.
type framesPart struct{ frames [][]byte }

func (f *framesPart) SnapshotName() string { return "frames" }

func (f *framesPart) SnapshotState(e *Encoder) {
	n := 4
	for _, pix := range f.frames {
		n += 4 + len(pix)
	}
	e.Grow(n)
	e.U32(uint32(len(f.frames)))
	for _, pix := range f.frames {
		e.Blob(pix)
	}
}

func (f *framesPart) RestoreState(d *Decoder) error {
	f.frames = make([][]byte, d.Len(4))
	for i := range f.frames {
		f.frames[i] = d.Blob()
	}
	return d.Err()
}

// BenchmarkCaptureEncode is a checkpoint's capture and encode: first
// is a capture early in a run, the fake parts and no frame dumped yet;
// frames48 is a supervised spinner run's last capture, which carries
// the 48 frames of 256x192 pixels dumped so far. Bytes are the frames'.
func BenchmarkCaptureEncode(b *testing.B) {
	frames := &framesPart{frames: make([][]byte, 48)}
	for i := range frames.frames {
		pix := make([]byte, 256*192*4)
		for j := range pix {
			pix[j] = byte(j/4%256 ^ (j/1024+i)%256)
		}
		frames.frames[i] = pix
	}
	for _, bc := range []struct {
		name   string
		frames [][]byte
	}{{"first", nil}, {"frames48", frames.frames}} {
		b.Run(bc.name, func(b *testing.B) {
			parts := append(testParts(), &framesPart{frames: bc.frames})
			b.SetBytes(int64(len(bc.frames) * 256 * 192 * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Capture(Meta{Cycle: int64(i)}, parts).Encode(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
