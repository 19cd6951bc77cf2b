package chkpt

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	if err := Restore(snap, dst, false); err != nil {
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
	err := Restore(snap, []Snapshotter{&fakePart{name: "gamma"}}, true)
	if !errors.Is(err, ErrMismatch) {
		t.Errorf("missing section: got %v, want ErrMismatch", err)
	}
	// Extra sections fail strict, pass lenient.
	only := []Snapshotter{&fakePart{name: "alpha"}}
	if err := Restore(snap, only, false); !errors.Is(err, ErrMismatch) {
		t.Errorf("strict extra sections: got %v, want ErrMismatch", err)
	}
	if err := Restore(snap, only, true); err != nil {
		t.Errorf("lenient extra sections: got %v, want nil", err)
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

	badVersion := append([]byte(nil), valid...)
	badVersion[len(magic)] = 0xEE
	check("bad version", badVersion, ErrFormat)

	// Flipping a compressed payload byte breaks the gzip stream or the
	// CRC; either way it is corruption.
	badPayload := append([]byte(nil), valid...)
	badPayload[len(badPayload)-5] ^= 0x01
	check("damaged payload", badPayload, ErrCorrupt)

	check("cut header", valid[:8], ErrTruncated)

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
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	for i := 0; i < len(valid); i += 7 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
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

// TestEpochSlotSkippedAndV1Compat: version 2 containers carry an int64
// slot after the workload fingerprint that older writers stamped with a
// lease epoch. A hand-built v2 file whose slot holds 42 must read back
// with its meta and sections intact, a version-1 file (no slot) must
// read the same way, and an unknown future version must fail typed.
func TestEpochSlotSkippedAndV1Compat(t *testing.T) {
	meta := Meta{Cycle: 7, Config: "c", Workload: "w"}
	sections := map[string][]byte{"a.section": {1, 2, 3}, "b.section": {}}
	names := []string{"a.section", "b.section"}
	payload := func(slot bool) []byte {
		var e Encoder
		e.I64(meta.Cycle)
		e.Str(meta.Config)
		e.Str(meta.Workload)
		if slot {
			e.I64(42)
		}
		e.U32(uint32(len(names)))
		for _, name := range names {
			e.Str(name)
			e.Blob(sections[name])
		}
		return e.Bytes()
	}
	for _, c := range []struct {
		ver  uint32
		slot bool
	}{{2, true}, {1, false}} {
		got, err := Read(bytes.NewReader(encodeRawContainer(t, c.ver, payload(c.slot))))
		if err != nil {
			t.Fatalf("version-%d container rejected: %v", c.ver, err)
		}
		if got.Meta != meta {
			t.Errorf("v%d meta %+v, want %+v", c.ver, got.Meta, meta)
		}
		if !slices.Equal(got.Sections(), names) {
			t.Errorf("v%d sections %v, want %v", c.ver, got.Sections(), names)
		}
		for _, name := range names {
			if !bytes.Equal(got.Section(name), sections[name]) {
				t.Errorf("v%d section %s = %v, want %v", c.ver, name, got.Section(name), sections[name])
			}
		}
	}

	v9 := encodeRawContainer(t, 9, payload(true))
	if _, err := Read(bytes.NewReader(v9)); !errors.Is(err, ErrFormat) {
		t.Errorf("version 9: got %v, want ErrFormat", err)
	}
}

// encodeRawContainer writes a container with an explicit version
// number around a raw payload (test helper for compatibility checks).
func encodeRawContainer(t *testing.T, ver uint32, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	var hdr [len(magic) + 4 + 4 + 8]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], ver)
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.Checksum(raw, crcTable))
	binary.LittleEndian.PutUint64(hdr[len(magic)+8:], uint64(len(raw)))
	buf.Write(hdr[:])
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// concatEncode is Snapshot.Encode of 91dbc46, kept as the model: it
// assembled the whole payload in one buffer, took its CRC, and handed
// it to the compressor in one Write.
func concatEncode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var payload Encoder
	payload.I64(s.Meta.Cycle)
	payload.Str(s.Meta.Config)
	payload.Str(s.Meta.Workload)
	payload.I64(0) // the epoch slot
	payload.U32(uint32(len(s.order)))
	for _, name := range s.order {
		payload.Str(name)
		payload.Blob(s.sections[name])
	}
	raw := payload.Bytes()

	var buf bytes.Buffer
	var hdr [len(magic) + 4 + 4 + 8]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.Checksum(raw, crcTable))
	binary.LittleEndian.PutUint64(hdr[len(magic)+8:], uint64(len(raw)))
	buf.Write(hdr[:])
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Encode streams the payload into the compressor piece by piece. The
// file must not show it: same CRC, same length, same compressed bytes
// as one Write of the assembled payload — over sections that are
// empty, tiny, longer than a deflate block, compressible and not.
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
		{noise[:65535], noise[:65536], make([]byte, 65537), noise[:1]},
	} {
		snap := NewSnapshot(Meta{Cycle: 123456, Config: "64x48 {Name:baseline}", Workload: "ut2004"})
		for i, data := range sections {
			snap.Add(string(rune('a'+i))+".section", data)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if want := concatEncode(t, snap); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%d sections: Encode wrote %d bytes, the concatenating Encode %d, or they differ", len(sections), buf.Len(), len(want))
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("%d sections: %v", len(sections), err)
		}
	}
}

// Encode keeps its compressor for the next checkpoint: after a warm-up
// call, encoding a small snapshot allocates the pieces and section
// prefixes, not the ~1.2 MB of tables a fresh BestSpeed writer brings.
// The least of ten calls is taken: a collection may empty the pool, and
// under the race detector the pool drops a quarter of what it is given.
func TestEncodeReusesCompressor(t *testing.T) {
	snap := Capture(Meta{Cycle: 1, Config: "c", Workload: "w"}, testParts())
	encode := func() {
		if err := snap.Encode(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	least := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		encode()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("an Encode allocates %d bytes after a warm-up call, want under 64 KiB", least)
	}
}
