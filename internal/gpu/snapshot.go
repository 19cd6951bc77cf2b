package gpu

import (
	"context"
	"fmt"
	"sort"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/mem"
)

// This file implements checkpoint and restore for the whole pipeline.
//
// The simulator never serializes in-flight work: a checkpoint is only
// taken at a globally quiesced cycle barrier — the command processor
// sits between commands, every signal has produced == consumed, every
// cache has no misses or outstanding transactions, and the memory
// controller is idle. At such a point the transient object graph
// (batches, quads, shader threads) is empty and the machine state is
// exactly the persistent registers this file captures: cycle and ID
// counters, statistics, the memory image, cache line arrays,
// framebuffer block state, and the various round-robin pointers.
// Quiesced barriers occur at least once per frame (a swap drains the
// pipeline), so the effective checkpoint cadence is
// max(interval, frame length).

// SafePoint reports that the command processor sits between commands
// with nothing in flight: no batch, no buffer upload, no pending
// clear, swap or render-target switch.
func (cp *CommandProcessor) SafePoint() bool {
	return cp.writing == nil && !cp.waitClear && !cp.waitSwap && !cp.rtt.active && cp.quiet()
}

// ---- Per-box persistent state ----

// SnapshotName implements chkpt.Snapshotter.
func (cp *CommandProcessor) SnapshotName() string { return "CommandProcessor" }

// SnapshotState implements chkpt.Snapshotter: the program counter into
// the command stream and the batch ID source. Everything else is
// empty at a safe point.
func (cp *CommandProcessor) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(cp.pc))
	e.U32(uint32(cp.nextBatchID))
}

// RestoreState implements chkpt.Snapshotter. The caller must have
// loaded the same command stream (SetCommands) first; pc indexes it.
func (cp *CommandProcessor) RestoreState(d *chkpt.Decoder) error {
	pc := int(d.U32())
	next := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if pc < 0 || pc > len(cp.cmds) {
		return fmt.Errorf("%w: command pc %d outside the %d-command stream", chkpt.ErrMismatch, pc, len(cp.cmds))
	}
	cp.pc = pc
	cp.nextBatchID = next
	// Only a file an older binary wrote holds a capture at the end of
	// the stream: EnableCheckpoints takes none there. Such a safe point
	// is the barrier of the cycle the last command completed in, or the
	// next, the final one: the CP finishes on a clock of its own. Only
	// that completion's progress tells them apart, so the watchdog's view
	// does when the file holds one and a watchdog is armed to load it;
	// otherwise a capture at the final barrier restores unfinished, and
	// runs a cycle long.
	since, _, known := cp.sim.WatchdogProgress()
	cp.finished = pc == len(cp.cmds) && known && since < cp.sim.Cycle()-1
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (f *Framebuffer) SnapshotName() string { return "Framebuffer" }

// SnapshotState implements chkpt.Snapshotter: which color buffer is
// the draw target plus any render-to-texture override (a checkpoint
// may land between the batches of an offscreen pass).
func (f *Framebuffer) SnapshotState(e *chkpt.Encoder) {
	e.U8(uint8(f.draw))
	if f.override != nil {
		e.Bool(true)
		e.U32(f.override.Base)
		e.U32(uint32(f.override.W))
		e.U32(uint32(f.override.H))
	} else {
		e.Bool(false)
	}
}

// RestoreState implements chkpt.Snapshotter.
func (f *Framebuffer) RestoreState(d *chkpt.Decoder) error {
	draw := int(d.U8())
	var override *SurfaceLayout
	if d.Bool() {
		base := d.U32()
		w := int(d.U32())
		h := int(d.U32())
		l := NewSurfaceLayout(base, w, h)
		override = &l
	}
	if err := d.Err(); err != nil {
		return err
	}
	if draw != 0 && draw != 1 {
		return fmt.Errorf("%w: draw buffer index %d", chkpt.ErrCorrupt, draw)
	}
	f.draw = draw
	f.override = override
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (d *DAC) SnapshotName() string { return "DAC" }

// SnapshotState implements chkpt.Snapshotter: the refresh scan cursor
// and the frames dumped so far (so a restored run's frame outputs are
// identical to an uninterrupted one's). The encoder is sized for every
// frame first: the section grows by a frame per dump, and appending
// frame by frame would regrow and copy it several times a capture.
func (d *DAC) SnapshotState(e *chkpt.Encoder) {
	n := 8
	for _, f := range d.frames {
		n += 12 + len(f.Pix)
	}
	e.Grow(n)
	e.U32(uint32(d.refreshAddr))
	e.U32(uint32(len(d.frames)))
	for _, f := range d.frames {
		e.U32(uint32(f.W))
		e.U32(uint32(f.H))
		e.Blob(f.Pix)
	}
}

// RestoreState implements chkpt.Snapshotter.
func (d *DAC) RestoreState(dec *chkpt.Decoder) error {
	refreshAddr := int(dec.U32())
	n := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	frames := make([]*Frame, 0, minInt(n, 1024))
	for i := 0; i < n; i++ {
		w := int(dec.U32())
		h := int(dec.U32())
		pix := dec.Blob()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(pix) != w*h*4 {
			return fmt.Errorf("%w: frame %d is %dx%d but has %d pixel bytes", chkpt.ErrCorrupt, i, w, h, len(pix))
		}
		frames = append(frames, &Frame{W: w, H: h, Pix: pix})
	}
	d.refreshAddr = refreshAddr
	d.frames = frames
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SnapshotName implements chkpt.Snapshotter.
func (s *Streamer) SnapshotName() string { return "Streamer" }

// SnapshotState implements chkpt.Snapshotter: only the attribute
// fetch cache persists across batches.
func (s *Streamer) SnapshotState(e *chkpt.Encoder) { s.fetch.SnapshotTo(e) }

// RestoreState implements chkpt.Snapshotter.
func (s *Streamer) RestoreState(d *chkpt.Decoder) error { return s.fetch.RestoreFrom(d) }

// SnapshotName implements chkpt.Snapshotter.
func (z *ZStencil) SnapshotName() string { return z.BoxName() }

// SnapshotState implements chkpt.Snapshotter: the per-block
// compression/clear states, the clear value and the Z cache.
func (z *ZStencil) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(len(z.states)))
	for _, st := range z.states {
		e.U8(uint8(st))
	}
	e.U32(z.clearValue)
	z.cache.SnapshotTo(e)
}

// RestoreState implements chkpt.Snapshotter.
func (z *ZStencil) RestoreState(d *chkpt.Decoder) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(z.states) {
		return fmt.Errorf("%w: %s has %d block states in snapshot, %d in machine", chkpt.ErrMismatch, z.BoxName(), n, len(z.states))
	}
	for i := 0; i < n; i++ {
		v := d.U8()
		if v > uint8(zStateQuarter) {
			return fmt.Errorf("%w: %s block %d has state %d", chkpt.ErrCorrupt, z.BoxName(), i, v)
		}
		z.states[i] = zBlockState(v)
	}
	z.clearValue = d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	return z.cache.RestoreFrom(d)
}

// SnapshotName implements chkpt.Snapshotter.
func (c *ColorWrite) SnapshotName() string { return c.BoxName() }

// SnapshotState implements chkpt.Snapshotter: the fast-clear block
// state per color buffer (maps serialized in key order for
// determinism), the current clear color and the color cache.
func (c *ColorWrite) SnapshotState(e *chkpt.Encoder) {
	bases := make([]uint32, 0, len(c.clearFlags))
	for base := range c.clearFlags {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	e.U32(uint32(len(bases)))
	for _, base := range bases {
		e.U32(base)
		flags := c.clearFlags[base]
		e.U32(uint32(len(flags)))
		for _, f := range flags {
			e.Bool(f)
		}
		val := c.clearVals[base]
		e.Blob(val[:])
	}
	e.Blob(c.clearValue[:])
	c.cache.SnapshotTo(e)
}

// RestoreState implements chkpt.Snapshotter.
func (c *ColorWrite) RestoreState(d *chkpt.Decoder) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	flags := make(map[uint32][]bool, n)
	vals := make(map[uint32][4]byte, n)
	for i := 0; i < n; i++ {
		base := d.U32()
		nf := int(d.U32())
		if err := d.Err(); err != nil {
			return err
		}
		if nf > 1<<24 {
			return fmt.Errorf("%w: %s clear state for %#x has %d blocks", chkpt.ErrCorrupt, c.BoxName(), base, nf)
		}
		fl := make([]bool, nf)
		for j := range fl {
			fl[j] = d.Bool()
		}
		vb := d.Blob()
		if err := d.Err(); err != nil {
			return err
		}
		if len(vb) != 4 {
			return fmt.Errorf("%w: %s clear value has %d bytes", chkpt.ErrCorrupt, c.BoxName(), len(vb))
		}
		flags[base] = fl
		var v [4]byte
		copy(v[:], vb)
		vals[base] = v
	}
	cv := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	if len(cv) != 4 {
		return fmt.Errorf("%w: %s current clear value has %d bytes", chkpt.ErrCorrupt, c.BoxName(), len(cv))
	}
	c.clearFlags = flags
	c.clearVals = vals
	copy(c.clearValue[:], cv)
	return c.cache.RestoreFrom(d)
}

// SnapshotName implements chkpt.Snapshotter.
func (h *HierarchicalZ) SnapshotName() string { return "HierarchicalZ" }

// SnapshotState implements chkpt.Snapshotter: the per-block maximum
// depth references.
func (h *HierarchicalZ) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(len(h.maxZ)))
	for _, v := range h.maxZ {
		e.U32(v)
	}
}

// RestoreState implements chkpt.Snapshotter.
func (h *HierarchicalZ) RestoreState(d *chkpt.Decoder) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(h.maxZ) {
		return fmt.Errorf("%w: HZ has %d blocks in snapshot, %d in machine", chkpt.ErrMismatch, n, len(h.maxZ))
	}
	for i := 0; i < n; i++ {
		h.maxZ[i] = d.U32()
	}
	return d.Err()
}

// SnapshotName implements chkpt.Snapshotter.
func (x *TexCrossbar) SnapshotName() string { return "TexCrossbar" }

// SnapshotState implements chkpt.Snapshotter: the round-robin
// distribution pointer.
func (x *TexCrossbar) SnapshotState(e *chkpt.Encoder) { e.U32(uint32(x.rrTU)) }

// RestoreState implements chkpt.Snapshotter.
func (x *TexCrossbar) RestoreState(d *chkpt.Decoder) error {
	v := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("%w: crossbar pointer %d", chkpt.ErrCorrupt, v)
	}
	x.rrTU = v
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (f *FragmentFIFO) SnapshotName() string { return "FragmentFIFO" }

// SnapshotState implements chkpt.Snapshotter: the shader dispatch
// round-robin pointer, as the shader the next cycle's scan starts at —
// what the payload has always held.
func (f *FragmentFIFO) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(f.startSlot(f.sim.Cycle())))
}

// RestoreState implements chkpt.Snapshotter.
func (f *FragmentFIFO) RestoreState(d *chkpt.Decoder) error {
	v := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	n := len(f.shaderIn)
	if v < 0 || v >= n {
		return fmt.Errorf("%w: dispatch pointer %d outside %d shaders", chkpt.ErrMismatch, v, n)
	}
	// The simulator's section restores first (Snapshotters order), so
	// Cycle is already the cycle the run resumes at.
	f.rr = int((int64(v)-f.sim.Cycle())%int64(n)+int64(n)) % n
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (s *ShaderUnit) SnapshotName() string { return s.BoxName() }

// SnapshotState implements chkpt.Snapshotter: the issue round-robin
// pointer and the arrival sequence source.
func (s *ShaderUnit) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(s.sched.rr))
	e.I64(s.seq)
}

// RestoreState implements chkpt.Snapshotter.
func (s *ShaderUnit) RestoreState(d *chkpt.Decoder) error {
	rr := int(d.U32())
	seq := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	if rr < 0 || rr >= len(s.threads) {
		return fmt.Errorf("%w: %s thread pointer %d outside %d threads", chkpt.ErrMismatch, s.BoxName(), rr, len(s.threads))
	}
	s.sched.rr = rr
	s.seq = seq
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (t *TextureUnit) SnapshotName() string { return t.BoxName() }

// SnapshotState implements chkpt.Snapshotter: the texture cache holds
// decoded texels that persist across requests. (The fill-format map is
// not state: it is rewritten immediately before every fill request.)
func (t *TextureUnit) SnapshotState(e *chkpt.Encoder) { t.cache.SnapshotTo(e) }

// RestoreState implements chkpt.Snapshotter.
func (t *TextureUnit) RestoreState(d *chkpt.Decoder) error { return t.cache.RestoreFrom(d) }

// ---- Pipeline-level API ----

// Quiesced reports whether the machine is at a checkpointable safe
// point: the command processor between commands, the memory controller
// idle, every box's private idle condition met and every signal
// drained. Called at the cycle barrier, on every cycle from the one a checkpoint falls due to the next safe
// point — most of a frame — so the clauses run cheapest and most often
// false first: the command processor is between commands with nothing
// in flight on a handful of cycles per frame.
func (p *Pipeline) Quiesced() bool {
	if !p.CP.SafePoint() || p.mc.Pending() {
		return false
	}
	for _, quiet := range p.quiet {
		if !quiet() {
			return false
		}
	}
	return p.Sim.Binder.Idle()
}

// resolveCheckpointing picks, once the machine is assembled, the boxes
// the quiesce predicate asks — each box whose BoxInfo has a Quiet; the
// command processor is asked first, by name — and the parts a
// checkpoint serializes, in a fixed order: framework state (cycle,
// stats, signals), the memory system, then every box that carries
// persistent state, in registration order.
func (p *Pipeline) resolveCheckpointing() {
	p.parts = []chkpt.Snapshotter{
		p.Sim, p.Sim.Stats, p.Sim.Binder,
		p.Mem, p.alloc, p.mc, p.FB,
	}
	for _, b := range p.Sim.Boxes() {
		if quiet := core.InfoOf(b).Quiet; quiet != nil {
			p.quiet = append(p.quiet, quiet)
		}
		// The memory controller is both a box and an explicit part.
		if s, ok := b.(chkpt.Snapshotter); ok && b != core.Box(p.mc) {
			p.parts = append(p.parts, s)
		}
	}
	// Callers append their own parts; never into this array.
	p.parts = p.parts[:len(p.parts):len(p.parts)]
}

// Snapshotters returns the parts of the machine serialized into a
// checkpoint, in capture order. The slice is shared: append to it, do
// not modify it.
func (p *Pipeline) Snapshotters() []chkpt.Snapshotter { return p.parts }

// ConfigFingerprint identifies the machine configuration a checkpoint
// belongs to. Host-only knobs (the ignored Workers, the watchdog
// window) are zeroed: they do not affect simulated state, so a
// checkpoint restores whatever either side set them to.
func (p *Pipeline) ConfigFingerprint() string {
	c := *p.Cfg
	c.Workers = 0
	c.WatchdogWindow = 0
	return fmt.Sprintf("%dx%d %+v", p.w, p.h, c)
}

// Checkpoint captures the full machine state. It fails unless the
// pipeline is quiesced (see Quiesced); callers normally use
// EnableCheckpoints, which only fires at quiesced barriers.
func (p *Pipeline) Checkpoint(workload string) (*chkpt.Snapshot, error) {
	if !p.Quiesced() {
		return nil, fmt.Errorf("gpu: checkpoint at cycle %d: pipeline not quiesced", p.Sim.Cycle())
	}
	meta := chkpt.Meta{
		Cycle:    p.Sim.Cycle(),
		Config:   p.ConfigFingerprint(),
		Workload: workload,
	}
	return chkpt.Capture(meta, p.Snapshotters()), nil
}

// EnableCheckpoints installs a periodic checkpoint engine: at the
// first quiesced cycle barrier at least interval cycles after the
// previous checkpoint, the machine state is written atomically to
// path. extra snapshotters (e.g. the metrics bus) are captured along
// with the machine. Returns the engine for progress/error inspection.
//
// No capture is taken, ForceNext included, once the command processor
// has taken its last command: what is left of the run is that
// command's own work, so a capture there saves a resumed run little,
// and a drain requested then lets the run finish instead of parking it.
func (p *Pipeline) EnableCheckpoints(path, workload string, interval int64, extra ...chkpt.Snapshotter) *chkpt.Engine {
	eng := &chkpt.Engine{
		Interval: interval,
		Path:     path,
		Quiesced: func() bool { return p.CP.pc < len(p.CP.cmds) && p.Quiesced() },
		Capture: func() (*chkpt.Snapshot, error) {
			meta := chkpt.Meta{
				Cycle:    p.Sim.Cycle(),
				Config:   p.ConfigFingerprint(),
				Workload: workload,
			}
			return chkpt.Capture(meta, append(p.Snapshotters(), extra...)), nil
		},
	}
	p.Sim.OnEndCycle(eng.EndCycle)
	return eng
}

// RestoreCheckpoint loads a snapshot into a freshly built pipeline of
// the same configuration. cmds must be the same command stream the
// checkpointed run used (the snapshot stores an index into it). extra
// snapshotters are restored too when their sections exist; sections
// with no matching snapshotter (e.g. a metrics bus the restored run
// does not have) are ignored. Continue with ResumeContext — not Run or
// RunContext, which would reset the command stream position.
func (p *Pipeline) RestoreCheckpoint(snap *chkpt.Snapshot, cmds []Command, extra ...chkpt.Snapshotter) error {
	if cfg := p.ConfigFingerprint(); snap.Meta.Config != cfg {
		return fmt.Errorf("%w: checkpoint is for configuration %q, machine is %q", chkpt.ErrMismatch, snap.Meta.Config, cfg)
	}
	p.CP.SetCommands(cmds)
	return chkpt.Restore(snap, append(p.Snapshotters(), extra...), true)
}

// ResumeContext continues a restored run: the cycle budget counts from
// the restored cycle, and the command stream position set by
// RestoreCheckpoint is preserved (unlike Run/RunContext, no
// SetCommands reset happens here).
func (p *Pipeline) ResumeContext(ctx context.Context, maxCycles int64) error {
	return p.simulate(ctx, maxCycles)
}

// MemController exposes the memory controller (fault injection,
// statistics).
func (p *Pipeline) MemController() *mem.Controller { return p.mc }
