// Package chkpt implements the checkpoint/restore subsystem: a
// versioned, CRC-guarded container of named state sections, written
// uncompressed, a bounded binary codec for writing them, and a cycle
// barrier engine that captures checkpoints at quiesced safe points.
//
// The design leans on the same property that makes clocking order
// irrelevant (every signal has latency >= 1): at a cycle barrier where the
// pipeline is globally quiesced (no objects in flight on any signal,
// no outstanding memory transactions, no batch being rendered), the
// entire machine state is the *persistent* state of each box — caches,
// counters, the command-processor program counter, the memory image —
// and none of the transient per-batch plumbing. Each stateful
// component implements Snapshotter; the engine serializes every
// section at the barrier and a restored simulator continues execution
// bit-identically (stats CSV, frame hashes, metrics NDJSON), serial
// or parallel.
//
// The package imports nothing from the simulator (only the standard
// library and the stdlib-only fsatomic writer), so every layer (core,
// mem, gpu, obsv) can depend on it.
package chkpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"sync/atomic"

	"attila/internal/fsatomic"
)

// Typed failure taxonomy. Every decode failure wraps one of these
// sentinels so tools can distinguish "not a checkpoint" from "damaged
// checkpoint" from "checkpoint for a different machine".
var (
	// ErrFormat reports a file that is not a checkpoint (bad magic) or
	// uses an unknown container version.
	ErrFormat = errors.New("chkpt: not a valid checkpoint file")
	// ErrCorrupt reports a checkpoint whose CRC or structure is
	// damaged.
	ErrCorrupt = errors.New("chkpt: corrupt checkpoint")
	// ErrTruncated reports a checkpoint that ends mid-structure.
	ErrTruncated = errors.New("chkpt: truncated checkpoint")
	// ErrMismatch reports a structurally valid checkpoint that does not
	// match the machine it is being restored into (different config,
	// workload, or section set).
	ErrMismatch = errors.New("chkpt: checkpoint does not match this run")
)

// Snapshotter is implemented by every component with persistent state.
// SnapshotState is called only at a quiesced cycle barrier;
// RestoreState is called on a freshly built component before the run
// starts. The interface is structural — implementations in packages
// that must not import chkpt (none today) would still satisfy it.
type Snapshotter interface {
	// SnapshotName returns the unique section name, conventionally the
	// box name.
	SnapshotName() string
	// SnapshotState serializes the component's persistent state.
	SnapshotState(e *Encoder)
	// RestoreState rebuilds the component's state; it returns an error
	// (normally d.Err()) when the section cannot be decoded.
	RestoreState(d *Decoder) error
}

// Format constants.
const (
	magic = "ATTILACKPT"
	// Version 3 writes the payload as it is. Versions 1 and 2, which
	// gzipped it, are refused like any other: nothing writes them.
	version = 3
	// maxPayload caps the payload so a corrupt or malicious length
	// field cannot balloon memory (the decoder is fuzzed against exactly
	// that).
	maxPayload = 1 << 30
	// maxSections caps the section count.
	maxSections = 1 << 16
	// maxBlob caps a single length-prefixed byte field.
	maxBlob = 1 << 28
	// maxSlice caps element counts of decoded slices.
	maxSlice = 1 << 26
)

// Meta identifies the run a checkpoint belongs to. Config and
// Workload are full fingerprint strings (not hashes) so a mismatch
// error can say exactly what differs. Host-only knobs (worker count,
// watchdog) must be excluded by the caller: a checkpoint taken
// serially restores into a parallel run and vice versa.
type Meta struct {
	Cycle    int64
	Config   string
	Workload string
}

// Snapshot is an in-memory checkpoint: meta plus named sections.
type Snapshot struct {
	Meta     Meta
	sections map[string][]byte
	order    []string
}

// NewSnapshot creates an empty snapshot with the given meta.
func NewSnapshot(meta Meta) *Snapshot {
	return &Snapshot{Meta: meta, sections: make(map[string][]byte)}
}

// Add stores one named section. Adding a duplicate name is a
// programming error.
func (s *Snapshot) Add(name string, data []byte) {
	if _, dup := s.sections[name]; dup {
		panic("chkpt: duplicate section " + name)
	}
	s.sections[name] = data
	s.order = append(s.order, name)
}

// Section returns a named section's bytes, or nil. They may share
// memory with the other sections: read them, do not write them.
func (s *Snapshot) Section(name string) []byte { return s.sections[name] }

// Sections returns the section names in capture order.
func (s *Snapshot) Sections() []string { return append([]string(nil), s.order...) }

// Capture serializes every Snapshotter into a fresh snapshot.
//
// Each part's encoder is given its room before the part writes: the
// rest of an arena of arenaBytes, which the small sections a capture is
// mostly made of share, one allocation between them. A part that
// outgrows the rest — the GPU memory, which sizes its own encoder with
// Grow, or a long frame list — moves to a buffer of its own and leaves
// the rest to the next part; less than sectionRoom left starts a new
// arena. (A counting pass could size every section exactly, but would
// run each part twice, the trace collector's JSON encoding included.)
func Capture(meta Meta, parts []Snapshotter) *Snapshot {
	snap := &Snapshot{Meta: meta, sections: make(map[string][]byte, len(parts)), order: make([]string, 0, len(parts))}
	var rest []byte
	for _, p := range parts {
		if cap(rest) < sectionRoom {
			rest = make([]byte, 0, arenaBytes)
		}
		e := Encoder{buf: rest}
		p.SnapshotState(&e)
		n := len(e.buf)
		if cap(e.buf) == cap(rest) { // written in place: the arena moves past it
			e.buf = e.buf[:n:n]
			rest = rest[n:n]
		}
		snap.Add(p.SnapshotName(), e.buf)
	}
	return snap
}

// arenaBytes is the arena Capture's sections share; sectionRoom is the
// least room a part starts with.
const (
	arenaBytes  = 64 << 10
	sectionRoom = 4 << 10
)

// Restore applies a snapshot to freshly built components. Every
// registered Snapshotter must find its section and every section must
// find its Snapshotter; set lenient to tolerate extra sections
// (forward compatibility for observers that were attached on capture
// but not on restore).
func Restore(snap *Snapshot, parts []Snapshotter, lenient bool) error {
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		name := p.SnapshotName()
		seen[name] = true
		data, ok := snap.sections[name]
		if !ok {
			return fmt.Errorf("%w: missing section %q", ErrMismatch, name)
		}
		d := NewDecoder(data)
		if err := p.RestoreState(d); err != nil {
			return fmt.Errorf("chkpt: section %q: %w", name, err)
		}
	}
	if !lenient {
		var extra []string
		for name := range snap.sections {
			if !seen[name] {
				extra = append(extra, name)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("%w: unknown sections %v", ErrMismatch, extra)
		}
	}
	return nil
}

// Encode serializes the snapshot: magic, version, CRC32-Castagnoli of
// the payload, payload length, then the payload itself (meta and
// sections), uncompressed. The payload is never assembled: its CRC and
// length are taken over the pieces, which are then written as they
// are.
func (s *Snapshot) Encode(w io.Writer) error {
	// The payload is meta, then per section its name and length (a
	// small prefix) and its bytes. Meta and the prefixes are written
	// into one encoder sized for them beforehand.
	headBytes := 8 + 4 + len(s.Meta.Config) + 4 + len(s.Meta.Workload) + 4
	for _, name := range s.order {
		headBytes += 4 + len(name) + 4
	}
	var head Encoder
	head.Grow(headBytes)
	head.I64(s.Meta.Cycle)
	head.Str(s.Meta.Config)
	head.Str(s.Meta.Workload)
	head.U32(uint32(len(s.order)))
	pieces := make([][]byte, 0, 1+2*len(s.order))
	pieces = append(pieces, head.buf)
	for _, name := range s.order {
		start := len(head.buf)
		head.Str(name)
		head.U32(uint32(len(s.sections[name])))
		pieces = append(pieces, head.buf[start:], s.sections[name])
	}
	var crc uint32
	var size uint64
	for _, p := range pieces {
		crc = crc32.Update(crc, crcTable, p)
		size += uint64(len(p))
	}

	var hdr [len(magic) + 4 + 4 + 8]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc)
	binary.LittleEndian.PutUint64(hdr[len(magic)+8:], size)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range pieces {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the snapshot atomically and durably through the
// repository's one durable writer (fsatomic.WriteTo), the encoder
// streaming into its temp file: a crash mid-write never clobbers the
// previous checkpoint, a power loss after the rename cannot surface a
// zero-length "latest" checkpoint, and a destination directory that was
// removed mid-run (disk yanked, cleanup raced) heals on the next capture
// instead of failing forever.
func (s *Snapshot) WriteFile(path string) error {
	return fsatomic.WriteTo(path, s.Encode)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Read parses a checkpoint stream, verifying magic, version, payload
// length and CRC before decoding any structure. All failures carry a
// typed sentinel; no input can make it panic or allocate beyond the
// declared (capped) payload size. The payload is held once: each
// section is a capped window of the buffer Read reads it into. Nothing
// writes a section (a Decoder only reads, and Blob copies), so one
// Snapshot restores any number of machines.
func Read(r io.Reader) (*Snapshot, error) {
	var hdr [len(magic) + 4 + 4 + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrFormat, v, version)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[len(magic)+4:])
	size := binary.LittleEndian.Uint64(hdr[len(magic)+8:])
	if size > maxPayload {
		return nil, fmt.Errorf("%w: declared payload %d exceeds limit", ErrCorrupt, size)
	}
	// Room for the payload, up to 1 MiB, and for the read past its end
	// that finds EOF: the buffer asks for bytes.MinRead free bytes before
	// every read, and without them would copy the payload into a buffer
	// twice its size.
	raw := make([]byte, 0, min64(size, 1<<20)+bytes.MinRead)
	buf := bytes.NewBuffer(raw)
	if _, err := io.Copy(buf, io.LimitReader(r, int64(size)+1)); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	raw = buf.Bytes()
	if uint64(len(raw)) < size {
		return nil, fmt.Errorf("%w: payload is %d bytes, header declares %d", ErrTruncated, len(raw), size)
	}
	if uint64(len(raw)) > size {
		return nil, fmt.Errorf("%w: payload runs past the %d bytes the header declares", ErrCorrupt, size)
	}
	if got := crc32.Checksum(raw, crcTable); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCorrupt, wantCRC, got)
	}

	d := NewDecoder(raw)
	var snap Snapshot
	snap.sections = make(map[string][]byte)
	snap.Meta.Cycle = d.I64()
	snap.Meta.Config = d.Str()
	snap.Meta.Workload = d.Str()
	n := d.U32()
	if n > maxSections {
		return nil, fmt.Errorf("%w: %d sections exceeds limit", ErrCorrupt, n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		name := d.Str()
		data := d.window()
		if d.Err() != nil {
			break
		}
		if _, dup := snap.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		snap.sections[name] = data
		snap.order = append(snap.order, name)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &snap, nil
}

// ReadFile reads and verifies a checkpoint file.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}

// Encoder serializes checkpoint sections: fixed-width little-endian
// integers and length-prefixed blobs. Writes cannot fail (memory
// buffer); the matching Decoder enforces the caps.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded section.
func (e *Encoder) Bytes() []byte { return e.buf }

// Grow makes room for n more bytes, for a writer that knows its size.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool writes a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 writes an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 writes a float64 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob writes a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Decoder reads a section with a sticky error: after any failure every
// read returns zero values and Err reports the first failure. Length
// fields are validated against both the caps and the remaining input,
// so corrupt sections fail typed instead of over-allocating.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps section bytes.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		if d.err == nil {
			d.err = fmt.Errorf("%w: offset %d: need %d bytes, have %d", ErrTruncated, d.off, n, len(d.buf)-d.off)
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if n > maxBlob {
		d.fail("string length %d exceeds limit", n)
		return ""
	}
	return string(d.take(int(n)))
}

// Blob reads a length-prefixed byte slice (copied).
func (d *Decoder) Blob() []byte { return append([]byte(nil), d.window()...) }

// window reads a length-prefixed byte slice as a window of the input,
// not a copy, capped at its length so that no append reaches the bytes
// after it.
func (d *Decoder) window() []byte {
	n := d.U32()
	if n > maxBlob {
		d.fail("blob length %d exceeds limit", n)
		return nil
	}
	b := d.take(int(n))
	return b[:len(b):len(b)]
}

// Len reads a slice length, validating it against the caps and the
// remaining input at the given minimum element width.
func (d *Decoder) Len(elemBytes int) int {
	n := d.U32()
	if n > maxSlice || (elemBytes > 0 && int(n) > (len(d.buf)-d.off)/elemBytes+1) {
		d.fail("slice length %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.Len(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Engine takes checkpoints at the cycle barrier: once Interval cycles
// have elapsed since the previous checkpoint, the next barrier at
// which Quiesced reports true captures a snapshot and atomically
// replaces the file at Path. Quiesced safe points occur at command
// boundaries with the pipeline drained — at least once per rendered
// frame — so the effective checkpoint cadence is max(Interval, frame
// length).
//
// The count/cycle/error accessors are safe to call from any
// goroutine.
type Engine struct {
	// Interval is the minimum cycle distance between checkpoints.
	Interval int64
	// Path is the checkpoint file, atomically replaced on every
	// capture.
	Path string
	// Quiesced reports whether the machine is at a safe point. Called
	// at the barrier only.
	Quiesced func() bool
	// Capture serializes the machine. Called at the barrier only, and
	// only when Quiesced returned true.
	Capture func() (*Snapshot, error)

	last      int64
	force     atomic.Bool
	count     atomic.Int64
	lastCycle atomic.Int64
	errv      atomic.Value // error
}

// ForceNext requests a checkpoint at the next eligible safe point
// regardless of how recently one was taken. It is safe to call from
// any goroutine; the job server uses it to checkpoint a run that is
// about to be drained. The request stays armed — across
// failed writes too — until a capture lands, then clears.
func (e *Engine) ForceNext() { e.force.Store(true) }

// EndCycle is the barrier hook; register it with
// core.Simulator.OnEndCycle.
func (e *Engine) EndCycle(cycle int64) {
	forced := e.force.Load()
	if !forced && (e.Interval <= 0 || cycle-e.last < e.Interval) {
		return
	}
	if !e.Quiesced() {
		return
	}
	e.last = cycle
	snap, err := e.Capture()
	if err == nil {
		err = snap.WriteFile(e.Path)
	}
	if err != nil {
		e.errv.Store(err)
		return
	}
	if forced {
		e.force.Store(false)
	}
	e.count.Add(1)
	e.lastCycle.Store(cycle)
}

// Count returns how many checkpoints have been written.
func (e *Engine) Count() int64 { return e.count.Load() }

// LastCycle returns the cycle of the most recent checkpoint (0 before
// the first).
func (e *Engine) LastCycle() int64 { return e.lastCycle.Load() }

// Err returns the most recent capture/write failure, or nil.
// Checkpoint failures never interrupt the run; they surface here.
func (e *Engine) Err() error {
	if v := e.errv.Load(); v != nil {
		return v.(error)
	}
	return nil
}
