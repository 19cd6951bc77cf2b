package gpu

import "attila/internal/core"

// This file is each pipeline box's core.Introspector: what the
// watchdog, the deadlock report, the metrics bus and the checkpoint
// gate read of it besides its statistics.
//
// Forward progress that is invisible as signal traffic (command-stream
// advancement, cache-hit texture filtering, shader instruction
// execution, quads retired into the framebuffer caches) is declared
// where its core.Progress counter is registered; only the command
// processor's program counter is a position register (Steps).
//
// Queues snapshots each box's input queues and the credit pools of
// its *output* flows (the producer's view of downstream backpressure),
// so each Flow appears in exactly one box's report. Quiet is the box's
// part of the checkpoint gate (Pipeline.Quiesced); the command
// processor's is SafePoint, asked first.

func flowStats(qs []core.QueueStat, flows ...*Flow) []core.QueueStat {
	for _, f := range flows {
		if f != nil {
			qs = append(qs, f.QueueStat())
		}
	}
	return qs
}

// Introspect implements core.Introspector: the program counter moves
// as commands retire, which can send nothing.
func (c *CommandProcessor) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Steps: []*int{&c.pc},
		Queues: func() []core.QueueStat {
			return []core.QueueStat{
				{Name: "CP.activeBatches", Occupied: len(c.active), Capacity: 2},
				{Name: "CP.memPort", Occupied: c.port.Outstanding(), Capacity: c.port.Outstanding() + c.port.Free()},
				c.drawOut.QueueStat(),
			}
		},
	}
}

// Introspect implements core.Introspector.
func (s *Streamer) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &s.statBusy,
		Queues: func() []core.QueueStat {
			return flowStats([]core.QueueStat{
				{Name: "Streamer.cmdQueue", Occupied: s.cmdQ.Len(), Capacity: 2},
				{Name: "Streamer.reorder", Occupied: s.readyCount()},
				{Name: "Streamer.shadePending", Occupied: s.waitedCount()},
			}, s.shadeOut, s.vtxOut)
		},
		Quiet: func() bool {
			return s.batch == nil && s.cmdQ.Len() == 0 && s.group == nil && s.fetch.Quiesce()
		},
	}
}

// readyCount is the number of shaded seqs waiting in the reorder ring.
func (s *Streamer) readyCount() (n int) {
	for seq := s.commit; seq < s.seq; seq++ {
		if s.slot(seq).ready {
			n++
		}
	}
	return n
}

// waitedCount is the number of vertices being shaded that other seqs
// wait on.
func (s *Streamer) waitedCount() (n int) {
	for i := range s.vcache {
		if len(s.vcache[i].waiters) > 0 {
			n++
		}
	}
	return n
}

// Introspect implements core.Introspector. The queue holds what the
// Streamer.VtxOut flow's credits (Config.PAQueue) let in.
func (p *PrimAssembly) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &p.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: "PA.queue", Occupied: p.queue.Len(), Capacity: p.vtxIn.cap}, p.triOut.QueueStat()}
		},
	}
}

// Introspect implements core.Introspector.
func (c *Clipper) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &c.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: "Clipper.queue", Occupied: c.queue.Len()}, c.triOut.QueueStat()}
		},
	}
}

// Introspect implements core.Introspector.
func (s *Setup) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &s.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: "Setup.queue", Occupied: s.queue.Len()}, s.triOut.QueueStat()}
		},
	}
}

// Introspect implements core.Introspector.
func (g *FragmentGenerator) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &g.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: "FGen.queue", Occupied: g.queue.Len()}, g.tileOut.QueueStat()}
		},
	}
}

// Introspect implements core.Introspector.
func (h *HierarchicalZ) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &h.statBusy,
		Queues: func() []core.QueueStat {
			qs := flowStats([]core.QueueStat{{Name: "HZ.queue", Occupied: h.queue.Len()}}, h.earlyZ...)
			return append(qs, h.lateOut.QueueStat())
		},
	}
}

// Introspect implements core.Introspector.
func (ip *Interpolator) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &ip.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: ip.BoxName() + ".queue", Occupied: ip.queue.Len()}, ip.quadOut.QueueStat()}
		},
	}
}

// Introspect implements core.Introspector.
func (f *FragmentFIFO) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Queues: func() []core.QueueStat {
			qs := []core.QueueStat{
				{Name: "FFIFO.window", Occupied: f.windowUsed, Capacity: f.cfg.WindowThreads},
				{Name: "FFIFO.fragRegs", Occupied: f.fragRegs, Capacity: f.cfg.PhysRegsFragment},
				{Name: "FFIFO.vtxRegs", Occupied: f.vtxRegs, Capacity: f.cfg.PhysRegsVertex},
				{Name: "FFIFO.arrived", Occupied: f.vtxArrived.Len() + f.fragArrived.Len()},
				{Name: "FFIFO.pending", Occupied: f.vtxPending.Len() + f.fragPending.Len()},
				{Name: "FFIFO.outbox", Occupied: f.outbox.Len()},
				f.vtxOut.QueueStat(),
			}
			qs = flowStats(qs, f.fragEarly...)
			qs = flowStats(qs, f.fragLate...)
			return flowStats(qs, f.shaderIn...)
		},
		Quiet: func() bool {
			return f.windowUsed == 0 && f.vtxArrived.Len() == 0 && f.fragArrived.Len() == 0 && f.outbox.Len() == 0
		},
	}
}

// Introspect implements core.Introspector.
func (s *ShaderUnit) Introspect() core.BoxInfo {
	used := func() int {
		n := 0
		for i := range s.threads {
			if s.threads[i].state != threadFree {
				n++
			}
		}
		return n
	}
	return core.BoxInfo{
		Busy: &s.statBusy,
		Queues: func() []core.QueueStat {
			return flowStats([]core.QueueStat{{Name: s.BoxName() + ".threads", Occupied: used(), Capacity: len(s.threads)}}, s.workOut, s.texReq)
		},
		Quiet: func() bool { return used() == 0 },
	}
}

// Introspect implements core.Introspector.
func (x *TexCrossbar) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Queues: func() []core.QueueStat {
			qs := flowStats([]core.QueueStat{
				{Name: "TexXBar.requests", Occupied: x.queue.Len()},
				{Name: "TexXBar.replies", Occupied: x.replies.Len()},
			}, x.toTU...)
			return flowStats(qs, x.toShader...)
		},
		Quiet: func() bool { return x.queue.Len() == 0 && x.replies.Len() == 0 },
	}
}

// Introspect implements core.Introspector. Unlike Quiesce (the
// snapshot published at the end of the cycle, which the CP polls),
// Quiet reads the live condition: it is only called at the barrier.
func (t *TextureUnit) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &t.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: t.BoxName() + ".queue", Occupied: t.queue.Len(), Capacity: t.cfg.TexQueue}, t.repOut.QueueStat()}
		},
		Quiet: t.idle,
	}
}

// Introspect implements core.Introspector.
func (z *ZStencil) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &z.statBusy,
		Queues: func() []core.QueueStat {
			return flowStats([]core.QueueStat{{Name: z.BoxName() + ".queue", Occupied: z.queue.Len(), Capacity: z.cfg.ROPQueue}}, z.earlyOut, z.lateOut)
		},
		Quiet: func() bool {
			return z.queue.Len() == 0 && !z.clearPending && !z.flushPending && z.cache.Quiesce()
		},
	}
}

// Introspect implements core.Introspector.
func (c *ColorWrite) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Busy: &c.statBusy,
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: c.BoxName() + ".queue", Occupied: c.queue.Len(), Capacity: c.cfg.ROPQueue}}
		},
		Quiet: func() bool {
			return c.queue.Len() == 0 && !c.clearPending && !c.flushPending && c.cache.Quiesce()
		},
	}
}

// Introspect implements core.Introspector.
func (d *DAC) Introspect() core.BoxInfo {
	return core.BoxInfo{
		Queues: func() []core.QueueStat {
			return []core.QueueStat{{Name: "DAC.pending", Occupied: len(d.pending)}}
		},
		Quiet: func() bool { return !d.active && d.port.Outstanding() == 0 },
	}
}
