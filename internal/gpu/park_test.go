package gpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"attila/internal/core"
	"attila/internal/core/coretest"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/rastemu"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// insideTri is a counterclockwise triangle well inside the frustum.
func insideTri(batch *BatchState, ids *core.IDSource) *TriWork {
	tw := &TriWork{DynObject: core.DynObject{ID: ids.Next(), Tag: "tri"}, Batch: batch}
	tw.V[0][isa.AttrPos] = vmath.Vec4{-0.5, -0.5, 0, 1}
	tw.V[1][isa.AttrPos] = vmath.Vec4{0.5, -0.5, 0, 1}
	tw.V[2][isa.AttrPos] = vmath.Vec4{0, 0.5, 0, 1}
	return tw
}

// A triangle waiting at the head of the Clipper's or Setup's queue for
// output credit is judged once, when it gets there — not on every
// blocked cycle, as both boxes used to (one emulator call per cycle,
// result thrown away). The test changes the waiting triangle under the
// box after its first blocked cycle, so that a second look would
// reject it; the verdict that counts is the first.
func TestBlockedTriangleIsJudgedOnce(t *testing.T) {
	st := &DrawState{Viewport: rastemu.Viewport{W: 64, H: 64, Far: 1}}
	for _, box := range []string{"Clipper", "TriangleSetup"} {
		sim := core.NewSimulator(0)
		in := pFlow(sim, "src", box, "in", 1, 1, 0, 4)
		out := pFlow(sim, box, "sink", "out", 1, 1, 0, 1) // one credit
		var clock func(int64)
		var spoil func(*TriWork)
		if box == "Clipper" {
			clock = NewClipper(sim, &pipePool{}, in, out).Clock
			spoil = func(tw *TriWork) { // wholly beyond the right plane
				for i := range tw.V {
					tw.V[i][isa.AttrPos] = vmath.Vec4{5, 0, 0, 1}
				}
			}
		} else {
			clock = NewSetup(sim, &pipePool{}, in, out).Clock
			spoil = func(tw *TriWork) { tw.V[0][isa.AttrPos][3] = 0 } // behind the eye
		}
		batch := &BatchState{State: st}
		first, second := insideTri(batch, &sim.IDs), insideTri(batch, &sim.IDs)
		var got []core.Dynamic
		var cycle int64
		step := func(n int) {
			for ; n > 0; n-- {
				got = append(got, out.Recv(cycle)...)
				clock(cycle)
				sim.EndCycle(cycle)
				cycle++
			}
		}
		in.Send(cycle, first)
		step(1)
		in.Send(cycle, second)
		step(10) // first holds the only credit; second waits at the head
		if len(got) != 1 || got[0].DynInfo().ID != first.ID || batch.TrisRetired != 0 {
			t.Fatalf("%s: %d triangles out, %d retired; want the box blocked behind its first", box, len(got), batch.TrisRetired)
		}
		spoil(second)
		step(10)
		if batch.TrisRetired != 0 {
			t.Fatalf("%s: the waiting triangle was judged again on a blocked cycle", box)
		}
		out.Release(1)
		step(5)
		if len(got) != 2 || batch.TrisRetired != 0 {
			t.Fatalf("%s: %d triangles out, %d retired; want the waiting triangle sent on its first verdict", box, len(got), batch.TrisRetired)
		}
	}
}

// Flows and a Clipper under the differential oracle. A toy producer
// sends whenever CanSend allows and parks when it does not; a toy
// consumer holds each item a while and releases its credit, the fold
// of its published flow waking the parked producer. The sends and
// releases, the machine's frames, are also those of the model: a bare
// flow folded on every cycle by a hook, nobody parking. A credit is
// visible to the producer exactly one cycle after Release.
// A Clipper fed two triangles a cycle must match the every-box run; one
// that parks whenever it likes — with a triangle still queued and
// credit to send it — is the negative control, caught on the watchdog's
// report of it parked over its queue.

type flowSrc struct {
	core.BoxBase
	out   *Flow
	total int
	sends []int64
}

func (p *flowSrc) Clock(cycle int64) {
	if len(p.sends) == p.total {
		p.Park()
		return
	}
	if !p.out.CanSend(cycle, 1) {
		p.Park() // until credit folds into out
		return
	}
	p.out.Send(cycle, &ShadedVertex{Seq: len(p.sends)})
	p.sends = append(p.sends, cycle)
}

type flowDst struct {
	core.BoxBase
	in       *Flow
	hold     func(seq int) int64
	held     []int64
	releases []int64
}

func (c *flowDst) Clock(cycle int64) {
	for _, o := range c.in.Recv(cycle) {
		c.held = append(c.held, cycle+c.hold(o.(*ShadedVertex).Seq))
	}
	for len(c.held) > 0 && c.held[0] <= cycle {
		c.held = c.held[1:]
		c.in.Release(1)
		c.releases = append(c.releases, cycle)
	}
	if len(c.held) == 0 {
		c.Park()
	}
}

type hastyClipper struct{ *Clipper }

func (h hastyClipper) Clock(cycle int64) {
	h.Clipper.Clock(cycle)
	h.Park()
}

type triSrc struct {
	core.BoxBase
	out   *Flow
	batch *BatchState
	ids   *core.IDSource
	left  int
}

func (s *triSrc) Clock(cycle int64) {
	for s.left > 0 && s.out.CanSend(cycle, 1) { // two a cycle: the Clipper falls behind
		s.out.Send(cycle, insideTri(s.batch, s.ids))
		s.left--
	}
}

type triDst struct {
	core.BoxBase
	in  *Flow
	got []int64
}

// Clock keeps what arrives: a release would fold credit into the
// Clipper's output flow and wake it, and the mistake would only cost
// cycles the every-cycle loop does not spend, not hang the run.
func (d *triDst) Clock(cycle int64) {
	for range d.in.Recv(cycle) {
		d.got = append(d.got, cycle)
	}
}

func TestParkedFlowsMatchEveryBox(t *testing.T) {
	toy := func(sim *core.Simulator, frames func() [][]byte) *coretest.Machine {
		return &coretest.Machine{Sim: sim, Run: func() error { return sim.Run(100000) }, Frames: frames}
	}
	t.Run("flow-fold", func(t *testing.T) {
		const total, credits = 200, 3
		hold := func(seq int) int64 { return int64(1 + (seq*seq)%17) } // some long: the producer starves
		var src *flowSrc
		var dst *flowDst
		machine := func(published bool) *coretest.Machine {
			sim := core.NewSimulator(0)
			var f *Flow
			if published {
				f = pFlow(sim, "Src", "Dst", "wire", 1, 2, 0, credits)
			} else { // the model: a bare flow folded every cycle by the old per-flow hook
				var bound *core.Signal
				f = NewFlow(sim.Binder.Provide("Src", "wire", 1, 2, 0), credits)
				sim.Binder.Bind("Dst", "wire", &bound)
				sim.OnEndCycle(f.EndCycle)
				sim.SetClockGate(coretest.PassAll{})
			}
			src, dst = &flowSrc{out: f, total: total}, &flowDst{in: f, hold: hold}
			src.Init("Src")
			dst.Init("Dst")
			sim.Register(dst)
			sim.Register(src)
			sim.SetDone(func() bool { return len(dst.releases) == total })
			return toy(sim, func() [][]byte { return [][]byte{fmt.Append(nil, src.sends, dst.releases)} })
		}
		out := coretest.Check(t, func(testing.TB) *coretest.Machine { return machine(true) })
		for _, d := range out.Diff("with the every-cycle fold", coretest.Record(t, machine(false))) {
			t.Error(d)
		}
		// Every send but the first few waits for a credit, and goes out no
		// sooner than the cycle after the release that frees it.
		starved := 0
		for i := credits; i < total; i++ {
			switch want := dst.releases[i-credits] + 1; {
			case src.sends[i] < want:
				t.Fatalf("send %d at %d, before its credit (released %d)", i, src.sends[i], want-1)
			case src.sends[i] == want:
				starved++
			}
		}
		if starved < total/4 {
			t.Fatalf("only %d sends waited for credit: the test shows nothing", starved)
		}
	})
	tris := func(hasty bool) coretest.Scenario {
		return func(testing.TB) *coretest.Machine {
			const n = 6
			sim := core.NewSimulator(0)
			in := pFlow(sim, "Src", "Clipper", "in", 2, 1, 0, n)
			out := pFlow(sim, "Clipper", "Dst", "out", 1, 2, 0, n)
			src := &triSrc{out: in, batch: &BatchState{State: &DrawState{}}, ids: &sim.IDs, left: n}
			src.Init("Src")
			sim.Register(src)
			if hasty {
				// Built by hand: NewClipper would register the honest box.
				c := &Clipper{pool: &pipePool{}, triIn: in, triOut: out}
				c.Init("Clipper")
				sim.Register(hastyClipper{c})
			} else {
				NewClipper(sim, &pipePool{}, in, out)
			}
			dst := &triDst{in: out}
			dst.Init("Dst")
			sim.Register(dst)
			sim.SetWatchdog(100)
			sim.SetDone(func() bool { return len(dst.got) == n })
			return toy(sim, func() [][]byte { return [][]byte{fmt.Append(nil, dst.got)} })
		}
	}
	t.Run("clipper", func(t *testing.T) { coretest.Check(t, tris(false)) })
	t.Run("control/hasty-clipper", func(t *testing.T) {
		var sims []*core.Simulator // the parked run's first
		_, diffs := coretest.Diff(t, func(tb testing.TB) *coretest.Machine {
			m := tris(true)(tb)
			sims = append(sims, m.Sim)
			return m
		})
		if len(diffs) == 0 {
			t.Fatal("a Clipper parking with a queued triangle went unnoticed")
		}
		// Clocked anyway, it delivers what the honest Clipper does: its
		// parks are the bug.
		hasty := tris(true)(t)
		hasty.Sim.SetClockGate(coretest.PassAll{})
		if got, want := coretest.Record(t, hasty), coretest.Record(t, tris(false)(t)); got.Err != "" || !bytes.Equal(got.Frames[0], want.Frames[0]) {
			t.Errorf("hasty Clipper clocked every cycle: arrivals %s (%s), the honest Clipper's %s", got.Frames[0], got.Err, want.Frames[0])
		}
		// The watchdog's report shows the Clipper parked over a queued
		// triangle, with nothing accruing.
		cr := sims[0].Crash()
		if cr == nil || cr.Deadlock == nil {
			t.Fatalf("the parked run left no deadlock report: %+v", cr)
		}
		var clipper *core.BoxState
		for i, b := range cr.Deadlock.Boxes {
			if b.Name == "Clipper" {
				clipper = &cr.Deadlock.Boxes[i]
			}
		}
		if clipper == nil || !clipper.Parked || len(clipper.Queues) == 0 || clipper.Queues[0].Occupied == 0 || len(clipper.Accruing) != 0 {
			t.Errorf("the watchdog's report does not show the Clipper parked over its queue: %+v", clipper)
		}
	})
}

// The twin for the states that wait on a cache, under the differential
// oracle: a Z and stencil test unit given one quad whose line misses (a
// quarter-compressed block: one transaction, one reply). With the
// cache's port resolved to its owner the reply wakes the unit and the
// quad is tested, as with every box clocked. With the resolution
// switched off, the negative control — the port declared owned by a
// box that does not exist, which is the wiring of 626197c, when a reply
// woke nobody and a unit with a transaction out had to stay awake — the
// unit parks on the miss and is never clocked again. That hang must
// read off the watchdog's report: the unit parked, counting its
// stallCycles, beside the reply wire holding the object it waits for. (A fill of several
// transactions fails sooner and louder: the second reply finds the
// first unread, which the wire reports as lost data.)

// zRig is a Z and stencil test unit with its cache and a memory
// controller, fed by a box that, on cycle 1, sends it a quad or (given
// none) starts a flush.
type zRig struct {
	core.BoxBase
	sim  *core.Simulator
	z    *ZStencil
	out  *Flow
	quad *Quad
}

func (r *zRig) Clock(cycle int64) {
	switch {
	case cycle != 1:
	case r.quad != nil:
		r.out.Send(cycle, r.quad)
	default:
		r.z.StartFlush()
	}
}

func newZRig(t *testing.T, quad bool) *zRig {
	cfg := Baseline()
	r := &zRig{sim: core.NewSimulator(0)}
	r.out = pFlow(r.sim, "Src", "ZStencil0", "in", 4, 1, 0, 8)
	early := pFlow(r.sim, "ZStencil0", "Dst", "early", 1, 2, 0, 8)
	late := pFlow(r.sim, "ZStencil0", "Dst", "late", 1, 2, 0, 8)
	r.z = NewZStencil(r.sim, &cfg, 0, &pipePool{}, NewSurfaceLayout(0, 64, 48), []*Flow{r.out}, early, late)
	// Block 0 as a flush would have left it: equal values, quarter size.
	var vals [fragemu.ZBlockElems]uint32
	level, block, _ := fragemu.CompressZBlock(&vals, nil)
	if level != fragemu.CompQuarter {
		t.Fatalf("uniform block compressed to level %v", level)
	}
	gm := mem.NewGPUMemory(1 << 20)
	gm.WriteBytes(0, block)
	r.z.states[0] = zStateQuarter
	mem.NewController(r.sim, cfg.Memory, gm, []string{"ZCache0"})
	if quad {
		st := &DrawState{Depth: fragemu.DepthState{Enabled: true, Func: fragemu.CmpAlways}}
		r.quad = &Quad{Batch: &BatchState{State: st}, Tri: &SetupTri{}, Mask: [4]bool{true, true, true, true}}
	}
	r.Init("Src")
	r.sim.Register(r)
	r.sim.SetWatchdog(500)
	return r
}

func TestMissedReplyWakeIsReadable(t *testing.T) {
	var unresolved []*zRig // the parked run's first
	rig := func(resolve bool) coretest.Scenario {
		return func(testing.TB) *coretest.Machine {
			r := newZRig(t, true)
			if !resolve {
				r.sim.Binder.Own("Nobody", "ZCache0")
				unresolved = append(unresolved, r)
			}
			r.sim.SetDone(func() bool { return r.z.statQuads.Value() == 1 })
			return &coretest.Machine{Sim: r.sim, Run: func() error { return r.sim.Run(100000) }}
		}
	}
	coretest.Check(t, rig(true))
	out, diffs := coretest.Diff(t, rig(false))
	if len(diffs) == 0 {
		t.Fatal("a reply wire resolved to nobody went unnoticed")
	}
	for _, want := range []string{"MC.ZCache0.Reply", "ZStencil0  (parked since cycle ", ", counting ZStencil0.stallCycles)"} {
		if !strings.Contains(out.Err, want) {
			t.Errorf("the watchdog's report lacks %q:\n%s", want, out.Err)
		}
	}
	// The sleeping unit's counter reads what the every-cycle loop would
	// have written: a stall cycle for every cycle from the quad's arrival
	// on cycle 2 to the one the watchdog fired on.
	if cr := unresolved[0].sim.Crash(); cr == nil || cr.Deadlock == nil || cr.Stats["ZStencil0.stallCycles"] != float64(cr.Deadlock.Cycle-1) {
		t.Errorf("crash report %+v: want ZStencil0.stallCycles one short of the watchdog's cycle", cr)
	}
}

// A flush that finds nothing dirty has issued everything it will on its
// first cycle and is over on its second: the unit must not park between
// the two, where no acknowledgement will ever wake it (the benchmark's
// doom3 scene hung on exactly this while the flush states were being
// taught to sleep; no golden scene swaps with a clean cache).
func TestFlushOfCleanCacheCompletes(t *testing.T) {
	r := newZRig(t, false)
	r.sim.SetDone(func() bool { return r.sim.Cycle() > 2 && r.z.FlushDone() })
	if err := r.sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := r.sim.Cycle(); got > 10 {
		t.Errorf("flush of a clean cache took until cycle %d", got)
	}
}
