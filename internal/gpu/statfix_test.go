package gpu

import (
	"testing"

	"attila/internal/core"
	"attila/internal/emu/fragemu"
)

// These tests pin corrected statistics against miscounts that used to
// inflate them under downstream backpressure:
//
//   - FragmentFIFO.route incremented Batch.ShadedQuads before checking
//     the consumer's CanSend, and drainOutbox retries route every
//     stalled cycle — a quad stuck behind a full ROP queue was counted
//     shaded once per retry cycle.
//   - ZStencil counted the same cycle both busy (test performed) and
//     stalled (forward blocked), so busy+stall exceeded wall cycles.
//   - HierarchicalZ and the Interpolator counted a cycle busy whenever
//     their queue was non-empty, even when a full consumer blocked all
//     work that cycle — utilization read 100% during downstream stalls.
//
// Each harness clocks a single box manually with hand-built flows, so
// the backpressure pattern is exact and the pinned values are stable.

// testFlow builds a flow over a fresh signal (latency 1).
func testFlow(name string, bw, maxLat, queue int) *Flow {
	return NewFlow(core.NewSignal(name, bw, 1, maxLat), queue)
}

// barrier folds flow credits and runs end-of-cycle hooks like the simulator's
// cycle barrier.
func barrier(sim *core.Simulator, cycle int64, flows ...*Flow) {
	for _, f := range flows {
		f.EndCycle(cycle)
	}
	sim.EndCycle(cycle)
}

func TestShadedQuadsCountedOncePerQuad(t *testing.T) {
	sim := core.NewSimulator(0)
	cfg := Baseline()
	layout := NewSurfaceLayout(0, 64, 64)
	vtxIn := testFlow("t.vtxIn", 8, 8, 8)
	fragIn := testFlow("t.fragIn", 8, 8, 8)
	vtxOut := testFlow("t.vtxOut", 8, 8, 8)
	fragEarly := []*Flow{testFlow("t.fe0", 8, 8, 8)}
	// One credit: the second quad must wait until the consumer
	// releases the first.
	fragLate := []*Flow{testFlow("t.fl0", 8, 8, 1)}
	shaderIn := []*Flow{testFlow("t.si0", 8, 8, 8)}
	shaderOut := []*Flow{testFlow("t.so0", 8, 8, 8)}
	f := NewFragmentFIFO(sim, &cfg, &pipePool{}, layout,
		vtxIn, fragIn, vtxOut, fragEarly, fragLate, shaderIn, shaderOut)

	// Two live late-Z quads sitting completed in the outbox, both
	// routing to ROP 0.
	batch := &BatchState{}
	q1 := &Quad{Batch: batch, Mask: [4]bool{true, true, true, true}, In: &QuadInputs{}}
	q2 := &Quad{Batch: batch, Mask: [4]bool{true, true, true, true}, X: 2, In: &QuadInputs{}}
	f.outbox.Push(&ShaderWork{Batch: batch, Kind: workFragment, Frag: q1})
	f.outbox.Push(&ShaderWork{Batch: batch, Kind: workFragment, Frag: q2})
	f.windowUsed = 2

	flows := []*Flow{vtxIn, fragIn, vtxOut, fragEarly[0], fragLate[0], shaderIn[0], shaderOut[0]}
	for c := int64(1); c <= 6; c++ {
		f.Clock(c)
		fragLate[0].Recv(c)
		if c == 4 {
			// The consumer retires q1 after holding it for a while;
			// q2 was blocked on cycles 2-4.
			fragLate[0].Release(1)
		}
		barrier(sim, c, flows...)
	}

	// Cycle 1 routes q1 and counts it; q2 retries on cycles 2-4 and
	// must not be recounted per retry; cycle 5 routes q2. The old
	// entry-point increment yielded 5.
	if batch.ShadedQuads != 2 {
		t.Fatalf("ShadedQuads = %d, want 2 (one per quad, not per routing retry)", batch.ShadedQuads)
	}
	if f.windowUsed != 0 || f.outbox.Len() != 0 {
		t.Fatalf("outbox not drained: windowUsed=%d outbox=%d", f.windowUsed, f.outbox.Len())
	}
}

func TestHZBusyNotCountedWhenBlocked(t *testing.T) {
	sim := core.NewSimulator(0)
	cfg := Baseline()
	layout := NewSurfaceLayout(0, 64, 64)
	tileIn := testFlow("t.tiles", 8, 8, 8)
	early := []*Flow{testFlow("t.early", 8, 8, 8)}
	// Four credits: a 1-quad tile passes, then a 4-quad tile blocks
	// until the consumer releases one.
	late := testFlow("t.late", 8, 8, 4)
	h := NewHierarchicalZ(sim, &cfg, &pipePool{}, layout, tileIn, early, late)

	b := &BatchState{} // HZ off, late Z: tiles forward to lateOut
	quad := func(x int) *Quad { return &Quad{Batch: b, Mask: [4]bool{true}, X: x} }
	tileA := &Tile{Batch: b, Quads: []*Quad{quad(0)}}
	tileB := &Tile{Batch: b, Quads: []*Quad{quad(8), quad(10), quad(12), quad(14)}, X: 8}

	for c := int64(1); c <= 6; c++ {
		if c == 1 {
			tileIn.Send(c, tileA)
			tileIn.Send(c, tileB)
		}
		h.Clock(c)
		late.Recv(c)
		if c == 4 {
			late.Release(1)
		}
		barrier(sim, c, tileIn, early[0], late)
	}

	// Cycle 2: tile A forwarded (busy), tile B blocked. Cycles 3-4:
	// no work at all — must not count busy (the old code counted
	// every non-empty-queue cycle, giving 4). Cycle 5: tile B goes.
	if got := sim.Stats.Lookup("HZ.busyCycles").Value(); got != 2 {
		t.Fatalf("HZ.busyCycles = %v, want 2 (blocked cycles are not busy)", got)
	}
	if got := sim.Stats.Lookup("HZ.tiles").Value(); got != 2 {
		t.Fatalf("HZ.tiles = %v, want 2", got)
	}
}

func TestInterpolatorBusyNotCountedWhenBlocked(t *testing.T) {
	sim := core.NewSimulator(0)
	cfg := Baseline()
	in := testFlow("t.qin", 8, 8, 8)
	out := testFlow("t.qout", 8, 32, 1) // one credit downstream
	ip := NewInterpolator(sim, &cfg, &pipePool{}, []*Flow{in}, out)

	b := &BatchState{State: &DrawState{}}
	tri := &SetupTri{}
	q1 := &Quad{Batch: b, Tri: tri, Mask: [4]bool{true}}
	q2 := &Quad{Batch: b, Tri: tri, Mask: [4]bool{true}, X: 2}

	for c := int64(1); c <= 6; c++ {
		if c == 1 {
			in.Send(c, q1)
			in.Send(c, q2)
		}
		ip.Clock(c)
		out.Recv(c)
		if c == 4 {
			out.Release(1)
		}
		barrier(sim, c, in, out)
	}

	// Cycle 2 interpolates q1; cycles 3-4 are fully blocked on the
	// FragmentFIFO credit and must not count busy (old code: 4);
	// cycle 5 interpolates q2.
	if got := sim.Stats.Lookup("Interpolator.busyCycles").Value(); got != 2 {
		t.Fatalf("Interpolator.busyCycles = %v, want 2 (blocked cycles are not busy)", got)
	}
	if got := sim.Stats.Lookup("Interpolator.quads").Value(); got != 2 {
		t.Fatalf("Interpolator.quads = %v, want 2", got)
	}
}

func TestZStencilBusyStallPartitionCycles(t *testing.T) {
	sim := core.NewSimulator(0)
	cfg := Baseline()
	layout := NewSurfaceLayout(0, 64, 64)
	// The Z cache's memory port reply wire normally comes from the
	// controller; fast-cleared blocks synthesize on chip, so a bare
	// signal keeps the port happy without any memory model.
	sim.Binder.Provide("MC", "MC.ZCache0.Reply", 8, 1, 0)
	in := testFlow("t.zin", 8, 8, 8)
	earlyOut := testFlow("t.zearly", 8, 8, 8)
	lateOut := testFlow("t.zlate", 8, 8, 1) // one credit downstream
	z := NewZStencil(sim, &cfg, 0, &pipePool{}, layout, []*Flow{in}, earlyOut, lateOut)
	z.StartClear(fragemu.PackDS(fragemu.MaxDepth, 0))

	st := &DrawState{Depth: fragemu.DepthState{Enabled: true, Func: fragemu.CmpLess, WriteMask: true}}
	b := &BatchState{State: st} // EarlyZ off: tested quads forward to lateOut
	mk := func(x int) *Quad {
		return &Quad{Batch: b, Mask: [4]bool{true, true, true, true},
			X: x, Depth: [4]uint32{1, 1, 1, 1}}
	}
	q1, q2 := mk(0), mk(2) // same framebuffer block: one cache fill

	for c := int64(1); c <= 8; c++ {
		if c == 2 {
			in.Send(c, q1)
			in.Send(c, q2)
		}
		z.Clock(c)
		lateOut.Recv(c)
		if c == 7 {
			lateOut.Release(1)
		}
		barrier(sim, c, in, earlyOut, lateOut)
	}

	// Cycle 1 clears. Cycle 3: q1 misses the cold cache (stall 1).
	// Cycle 4: synth fill lands, q1 tests and forwards (busy 1).
	// Cycle 5: q2 tests (busy 2) but the forward blocks — the cycle
	// did work, so it is busy, NOT also a stall (the old code counted
	// both, making busy+stall exceed occupied cycles). Cycles 6-7:
	// blocked retries, stalls 2 and 3. Cycle 8: q2 forwards (busy 3).
	busy := sim.Stats.Lookup("ZStencil0.busyCycles").Value()
	stall := sim.Stats.Lookup("ZStencil0.stallCycles").Value()
	if busy != 3 || stall != 3 {
		t.Fatalf("busy=%v stall=%v, want busy=3 stall=3 (old code double-counted the blocked test cycle as stall=4)", busy, stall)
	}
	if got := sim.Stats.Lookup("ZStencil0.quads").Value(); got != 2 {
		t.Fatalf("ZStencil0.quads = %v, want 2", got)
	}
	// The two counters partition the unit's occupied time: cycles 3-8
	// with a quad at head, six in total.
	if busy+stall != 6 {
		t.Fatalf("busy+stall = %v, want 6 (they must partition occupied cycles)", busy+stall)
	}
}
