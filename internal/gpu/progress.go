package gpu

import "attila/internal/core"

// This file implements the watchdog's core.ProgressReporter and
// core.StallReporter interfaces for the pipeline boxes.
//
// ProgressTerms names the forward progress that is invisible as
// signal traffic: command-stream advancement, cache-hit texture
// filtering, shader instruction execution, quads retired into the
// framebuffer caches. Only genuinely forward-moving counters qualify
// — busy/stall counters tick while deadlocked and would mask a hang —
// and each is a core.Progress, which counts into the tally the watchdog
// reads.
//
// Queues snapshots each box's input queues and the credit pools of
// its *output* flows (the producer's view of downstream backpressure),
// so each Flow appears in exactly one box's report. It runs at the
// cycle barrier.

func flowStats(flows ...*Flow) []core.QueueStat {
	out := make([]core.QueueStat, 0, len(flows))
	for _, f := range flows {
		if f != nil {
			out = append(out, f.QueueStat())
		}
	}
	return out
}

// ProgressTerms implements core.ProgressReporter: command retirement
// and bus upload streaming advance without signal traffic.
func (c *CommandProcessor) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&c.statCmds, &c.statBatches, &c.statFrames, &c.statBytesUp}, []*int{&c.pc}
}

// Queues implements core.StallReporter.
func (c *CommandProcessor) Queues() []core.QueueStat {
	qs := []core.QueueStat{
		{Name: "CP.activeBatches", Occupied: len(c.active), Capacity: 2},
		{Name: "CP.memPort", Occupied: c.port.Outstanding(), Capacity: c.port.Outstanding() + c.port.Free()},
	}
	return append(qs, c.drawOut.QueueStat())
}

// ProgressTerms implements core.ProgressReporter: vertex-cache hits
// commit vertices without shader traffic.
func (s *Streamer) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&s.statVtx, &s.statVCacheHit, &s.statVCacheMis}, nil
}

// Queues implements core.StallReporter.
func (s *Streamer) Queues() []core.QueueStat {
	qs := []core.QueueStat{
		{Name: "Streamer.cmdQueue", Occupied: len(s.cmdQ), Capacity: 2},
		{Name: "Streamer.reorder", Occupied: len(s.ready)},
		{Name: "Streamer.shadePending", Occupied: len(s.pendingV)},
	}
	return append(qs, flowStats(s.shadeOut, s.vtxOut)...)
}

// Queues implements core.StallReporter.
func (p *PrimAssembly) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: "PA.queue", Occupied: p.queue.Len(), Capacity: 8}}
	return append(qs, p.triOut.QueueStat())
}

// Queues implements core.StallReporter.
func (c *Clipper) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: "Clipper.queue", Occupied: c.queue.Len()}}
	return append(qs, c.triOut.QueueStat())
}

// Queues implements core.StallReporter.
func (s *Setup) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: "Setup.queue", Occupied: s.queue.Len()}}
	return append(qs, s.triOut.QueueStat())
}

// ProgressTerms implements core.ProgressReporter: recursive-descent
// traversal can spend cycles on empty regions between tile emissions.
func (g *FragmentGenerator) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&g.statTiles, &g.statQuads}, nil
}

// Queues implements core.StallReporter.
func (g *FragmentGenerator) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: "FGen.queue", Occupied: g.queue.Len()}}
	return append(qs, g.tileOut.QueueStat())
}

// ProgressTerms implements core.ProgressReporter: HZ-culled tiles
// retire quads with no downstream traffic.
func (h *HierarchicalZ) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&h.statTiles, &h.statCulled}, nil
}

// Queues implements core.StallReporter.
func (h *HierarchicalZ) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: "HZ.queue", Occupied: h.queue.Len()}}
	qs = append(qs, flowStats(h.earlyZ...)...)
	return append(qs, h.lateOut.QueueStat())
}

// Queues implements core.StallReporter.
func (ip *Interpolator) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: ip.BoxName() + ".queue", Occupied: ip.queue.Len()}}
	return append(qs, ip.quadOut.QueueStat())
}

// ProgressTerms implements core.ProgressReporter: thread launches and
// in-place fragment kills.
func (f *FragmentFIFO) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&f.statVtxThreads, &f.statFragThreads, &f.statKilled}, nil
}

// Queues implements core.StallReporter.
func (f *FragmentFIFO) Queues() []core.QueueStat {
	qs := []core.QueueStat{
		{Name: "FFIFO.window", Occupied: f.windowUsed, Capacity: f.cfg.WindowThreads},
		{Name: "FFIFO.fragRegs", Occupied: f.fragRegs, Capacity: f.cfg.PhysRegsFragment},
		{Name: "FFIFO.vtxRegs", Occupied: f.vtxRegs, Capacity: f.cfg.PhysRegsVertex},
		{Name: "FFIFO.arrived", Occupied: f.vtxArrived.Len() + f.fragArrived.Len()},
		{Name: "FFIFO.pending", Occupied: f.vtxPending.Len() + f.fragPending.Len()},
		{Name: "FFIFO.outbox", Occupied: f.outbox.Len()},
	}
	qs = append(qs, f.vtxOut.QueueStat())
	qs = append(qs, flowStats(f.fragEarly...)...)
	qs = append(qs, flowStats(f.fragLate...)...)
	return append(qs, flowStats(f.shaderIn...)...)
}

// ProgressTerms implements core.ProgressReporter: instruction
// execution is signal-silent.
func (s *ShaderUnit) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&s.statInstr}, nil
}

// Queues implements core.StallReporter.
func (s *ShaderUnit) Queues() []core.QueueStat {
	used := 0
	for i := range s.threads {
		if s.threads[i].state != threadFree {
			used++
		}
	}
	qs := []core.QueueStat{{Name: s.BoxName() + ".threads", Occupied: used, Capacity: len(s.threads)}}
	return append(qs, flowStats(s.workOut, s.texReq)...)
}

// Queues implements core.StallReporter.
func (x *TexCrossbar) Queues() []core.QueueStat {
	qs := []core.QueueStat{
		{Name: "TexXBar.requests", Occupied: x.queue.Len()},
		{Name: "TexXBar.replies", Occupied: x.replies.Len()},
	}
	qs = append(qs, flowStats(x.toTU...)...)
	return append(qs, flowStats(x.toShader...)...)
}

// ProgressTerms implements core.ProgressReporter: cache-hit filtering
// consumes texels with no memory traffic.
func (t *TextureUnit) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&t.statReqs, &t.statTexels}, nil
}

// Queues implements core.StallReporter.
func (t *TextureUnit) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: t.BoxName() + ".queue", Occupied: t.queue.Len(), Capacity: t.cfg.TexQueue}}
	return append(qs, t.repOut.QueueStat())
}

// ProgressTerms implements core.ProgressReporter: culled quads retire
// with no output traffic, and fast clears flip block states in place.
func (z *ZStencil) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&z.statQuads, &z.statCulled}, nil
}

// Queues implements core.StallReporter.
func (z *ZStencil) Queues() []core.QueueStat {
	qs := []core.QueueStat{{Name: z.BoxName() + ".queue", Occupied: z.queue.Len(), Capacity: z.cfg.ROPQueue}}
	return append(qs, flowStats(z.earlyOut, z.lateOut)...)
}

// ProgressTerms implements core.ProgressReporter: quads retire into
// the color cache with no further signal traffic.
func (c *ColorWrite) ProgressTerms() ([]*core.Progress, []*int) {
	return []*core.Progress{&c.statQuads, &c.statFrags}, nil
}

// Queues implements core.StallReporter.
func (c *ColorWrite) Queues() []core.QueueStat {
	return []core.QueueStat{{Name: c.BoxName() + ".queue", Occupied: c.queue.Len(), Capacity: c.cfg.ROPQueue}}
}

// Queues implements core.StallReporter.
func (d *DAC) Queues() []core.QueueStat {
	return []core.QueueStat{{Name: "DAC.pending", Occupied: len(d.pending)}}
}

// BusyCycles implements core.BusyReporter for every box that already
// keeps a busy-cycle counter; the observability layer derives
// per-window utilization fractions from the deltas. Counters are read
// only at the cycle barrier, like the other reporter interfaces.

func (s *Streamer) BusyCycles() float64          { return s.statBusy.Value() }
func (p *PrimAssembly) BusyCycles() float64      { return p.statBusy.Value() }
func (c *Clipper) BusyCycles() float64           { return c.statBusy.Value() }
func (s *Setup) BusyCycles() float64             { return s.statBusy.Value() }
func (g *FragmentGenerator) BusyCycles() float64 { return g.statBusy.Value() }
func (h *HierarchicalZ) BusyCycles() float64     { return h.statBusy.Value() }
func (ip *Interpolator) BusyCycles() float64     { return ip.statBusy.Value() }
func (s *ShaderUnit) BusyCycles() float64        { return s.statBusy.Value() }
func (t *TextureUnit) BusyCycles() float64       { return t.statBusy.Value() }
func (z *ZStencil) BusyCycles() float64          { return z.statBusy.Value() }
func (c *ColorWrite) BusyCycles() float64        { return c.statBusy.Value() }
