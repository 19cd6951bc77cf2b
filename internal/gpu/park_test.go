package gpu

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/rastemu"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// insideTri is a counterclockwise triangle well inside the frustum.
func insideTri(batch *BatchState, ids *core.IDSource) *TriWork {
	mk := func(x, y float32) *ShadedVertex {
		v := &ShadedVertex{Batch: batch}
		v.Out[isa.AttrPos] = vmath.Vec4{x, y, 0, 1}
		return v
	}
	return &TriWork{
		DynObject: core.DynObject{ID: ids.Next(), Tag: "tri"},
		Batch:     batch,
		V:         [3]*ShadedVertex{mk(-0.5, -0.5), mk(0.5, -0.5), mk(0, 0.5)},
	}
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
			clock = NewClipper(sim, in, out).Clock
			spoil = func(tw *TriWork) { // wholly beyond the right plane
				for _, v := range tw.V {
					v.Out[isa.AttrPos] = vmath.Vec4{5, 0, 0, 1}
				}
			}
		} else {
			clock = NewSetup(sim, in, out).Clock
			spoil = func(tw *TriWork) { tw.V[0].Out[isa.AttrPos][3] = 0 } // behind the eye
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

// Flow credits against the every-cycle fold kept as the model: a toy
// producer sends whenever CanSend allows and parks when it does not, a
// toy consumer holds each item a while and releases its credit. With a
// published flow (folded only on cycles with a release, the fold waking
// the parked producer) the sends must land on the cycles they land on
// with a bare flow folded on every cycle by a hook and nobody parking:
// a credit is visible to the producer exactly one cycle after Release.

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

type passAll struct{}

func (passAll) BeforeClock(int64, core.Box) bool { return true }

func TestFlowFoldMatchesEveryCycleModel(t *testing.T) {
	const total, credits = 200, 3
	hold := func(seq int) int64 { return int64(1 + (seq*seq)%17) } // some long: the producer starves
	build := func(published bool) (*core.Simulator, *flowSrc, *flowDst) {
		sim := core.NewSimulator(0)
		var f *Flow
		if published {
			f = pFlow(sim, "Src", "Dst", "wire", 1, 2, 0, credits)
		} else {
			var bound *core.Signal
			f = NewFlow(sim.Binder.Provide("Src", "wire", 1, 2, 0), credits)
			sim.Binder.Bind("Dst", "wire", &bound)
			sim.OnEndCycle(f.EndCycle) // the old per-flow hook
			sim.SetClockGate(passAll{})
		}
		src := &flowSrc{out: f, total: total}
		src.Init("Src")
		dst := &flowDst{in: f, hold: hold}
		dst.Init("Dst")
		sim.Register(dst)
		sim.Register(src)
		sim.SetDone(func() bool { return len(dst.releases) == total })
		return sim, src, dst
	}
	msim, msrc, mdst := build(false)
	if err := msim.Run(100000); err != nil {
		t.Fatal(err)
	}
	// The model itself: every send but the first few waits for a credit,
	// and goes out the cycle after the release that frees it.
	starved := 0
	for i := credits; i < total; i++ {
		switch want := mdst.releases[i-credits] + 1; {
		case msrc.sends[i] < want:
			t.Fatalf("model: send %d at %d, before its credit (released %d)", i, msrc.sends[i], want-1)
		case msrc.sends[i] == want:
			starved++
		}
	}
	if starved < total/4 {
		t.Fatalf("model: only %d sends waited for credit, the test shows nothing", starved)
	}

	check := func(name string, src *flowSrc, dst *flowDst) {
		t.Helper()
		if !slices.Equal(src.sends, msrc.sends) || !slices.Equal(dst.releases, mdst.releases) {
			t.Errorf("%s: sends or releases differ from the every-cycle fold", name)
		}
	}
	sim, src, dst := build(true)
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	if sim.Cycle() != msim.Cycle() {
		t.Errorf("%d cycles, model %d", sim.Cycle(), msim.Cycle())
	}
	check("run", src, dst)
	// A harness that clocks by hand: Simulator.EndCycle folds the list.
	sim, src, dst = build(true)
	for c := int64(0); c < msim.Cycle(); c++ {
		dst.Clock(c)
		src.Clock(c)
		sim.EndCycle(c)
	}
	check("manual EndCycle", src, dst)
}

// The check that TestParkedClockIsNoOp has teeth: a Clipper that parks
// whenever it likes — here with a triangle still queued and credit to
// send it — is caught by the same comparison, a run against the
// every-box-every-cycle loop.

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

func TestParkingWithQueuedItemIsCaught(t *testing.T) {
	const tris = 6
	run := func(hasty, allAwake bool) ([]int64, error) {
		sim := core.NewSimulator(0)
		in := pFlow(sim, "Src", "Clipper", "in", 2, 1, 0, tris)
		out := pFlow(sim, "Clipper", "Dst", "out", 1, 2, 0, tris)
		src := &triSrc{out: in, batch: &BatchState{State: &DrawState{}}, ids: &sim.IDs, left: tris}
		src.Init("Src")
		sim.Register(src)
		if hasty {
			// Built by hand: NewClipper would register the honest box.
			c := &Clipper{triIn: in, triOut: out}
			c.Init("Clipper")
			sim.Register(hastyClipper{c})
		} else {
			NewClipper(sim, in, out)
		}
		dst := &triDst{in: out}
		dst.Init("Dst")
		sim.Register(dst)
		if allAwake {
			sim.SetClockGate(passAll{})
		}
		sim.SetWatchdog(100)
		sim.SetDone(func() bool { return len(dst.got) == tris })
		err := sim.Run(1000)
		return dst.got, err
	}
	want, err := run(false, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := run(false, false); err != nil || !slices.Equal(got, want) {
		t.Fatalf("honest Clipper: arrivals %v (%v), every-cycle loop %v", got, err, want)
	}
	if got, err := run(true, true); err != nil || !slices.Equal(got, want) {
		t.Fatalf("hasty Clipper, every box clocked anyway: arrivals %v (%v), want %v", got, err, want)
	}
	got, err := run(true, false)
	if err == nil && slices.Equal(got, want) {
		t.Fatal("a Clipper parking with a queued triangle went unnoticed")
	}
	// The hang reads off the watchdog's report: the Clipper holds a
	// triangle and is not being clocked.
	var de *core.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("hasty Clipper: %v, want the watchdog's report", err)
	}
	var clipper *core.BoxState
	for i := range de.Report.Boxes {
		if de.Report.Boxes[i].Name == "Clipper" {
			clipper = &de.Report.Boxes[i]
		}
	}
	if clipper == nil || !clipper.Parked || clipper.Queues[0].Occupied == 0 || len(clipper.Accruing) != 0 {
		t.Fatalf("report does not show the Clipper parked over its queue: %+v", clipper)
	}
	if text := de.Report.String(); !strings.Contains(text, fmt.Sprintf("Clipper  (parked since cycle %d)", clipper.ParkedAt)) {
		t.Errorf("report text does not name the Clipper as parked:\n%s", text)
	}
}

// The twin for the states that wait on a cache: a Z and stencil test
// unit given one quad whose line misses (a quarter-compressed block:
// one transaction, one reply). With the cache's port resolved to its
// owner the reply wakes the unit and the quad is tested. With the
// resolution switched off — the port declared owned by a box that does
// not exist, which is the wiring of 626197c, when a reply woke nobody
// and a unit with a transaction out had to stay awake — the unit parks
// on the miss and is never clocked again. That hang must read off the
// watchdog's report: the unit parked, counting its stallCycles, beside
// the reply wire holding the object it waits for. (A fill of several
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
	run := func(resolve bool) (*core.Simulator, error) {
		r := newZRig(t, true)
		if !resolve {
			r.sim.Binder.Own("Nobody", "ZCache0")
		}
		r.sim.SetDone(func() bool { return r.z.statQuads.Value() == 1 })
		return r.sim, r.sim.Run(100000)
	}
	if _, err := run(true); err != nil {
		t.Fatalf("reply wire resolved to the unit: %v", err)
	}
	sim, err := run(false)
	var de *core.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("reply wire resolved to nobody: %v, want the watchdog's report", err)
	}
	var unit *core.BoxState
	for i := range de.Report.Boxes {
		if de.Report.Boxes[i].Name == "ZStencil0" {
			unit = &de.Report.Boxes[i]
		}
	}
	if unit == nil || !unit.Parked || !slices.Equal(unit.Accruing, []string{"ZStencil0.stallCycles"}) {
		t.Fatalf("report does not show ZStencil0 parked counting its stall cycles: %+v", unit)
	}
	stuck := false
	for _, s := range de.Report.Signal {
		stuck = stuck || s.Name == "MC.ZCache0.Reply" && s.Produced > s.Consumed
	}
	if !stuck {
		t.Errorf("report does not show MC.ZCache0.Reply holding an object: %+v", de.Report.Signal)
	}
	text := de.Report.String()
	for _, want := range []string{
		"MC.ZCache0.Reply",
		fmt.Sprintf("ZStencil0  (parked since cycle %d, counting ZStencil0.stallCycles)", unit.ParkedAt),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report text lacks %q:\n%s", want, text)
		}
	}
	// The sleeping unit's counter reads what the every-cycle loop would
	// have written: a stall cycle for every cycle from the quad's arrival
	// on cycle 2 to the one the watchdog fired on.
	if got, want := sim.Crash().Stats["ZStencil0.stallCycles"], float64(de.Report.Cycle-1); got != want {
		t.Errorf("ZStencil0.stallCycles = %v at the watchdog's cycle %d, want %v", got, de.Report.Cycle, want)
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
