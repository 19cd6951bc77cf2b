package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"attila/internal/chkpt"
)

// The toy machine of the accrual tests: boxes that count a stall cycle
// per blocked cycle, and sleep through them. A source sends numbered
// objects while it holds credit and counts every cycle it holds none
// (woken by the fold of the sink's releases); a sink works on each
// object for a few cycles (awake: a timed wait) and, starved, counts
// the cycle once in one counter and once per idle lane in another
// (woken by the wire). The every-cycle model is the same machine under
// a pass-everything gate, where nobody parks and every counter is
// incremented in place.

type stallSource struct {
	BoxBase
	out      *Signal
	credits  int
	total    int
	lat      int   // latency of every write
	gapEvery int   // a gap after every gapEvery sends
	gap      int64 // quiet cycles of a gap (awake: a timed wait)

	sent     int
	nextSend int64
	blocked  Counter // cycles without credit
}

func (p *stallSource) Clock(cycle int64) {
	switch {
	case p.sent == p.total:
		p.Park() // nothing left to do, ever
	case p.credits == 0:
		p.blocked.Inc()
		p.ParkCounting(&p.blocked, 1) // until the sink's release folds
	case cycle >= p.nextSend:
		p.out.WriteLat(cycle, p.lat, &parkObj{val: p.sent, arrive: cycle + int64(p.lat)})
		p.credits--
		p.sent++
		p.nextSend = cycle + 1
		if p.sent%p.gapEvery == 0 {
			p.nextSend += p.gap
		}
	}
}

type stallSink struct {
	BoxBase
	in       *Signal
	hold     int64
	lanes    int
	pub      *Publication
	released int // written here, folded into the source at the end of the cycle

	held      []int64 // release cycles of the objects being worked on
	got       int
	busy      Counter
	starved   Counter // cycles with nothing to work on
	lanesIdle Counter // lanes of them

	askedAt int64 // the cycle of the last Clock that asked to park
}

func (c *stallSink) Clock(cycle int64) {
	for _, o := range c.in.Read(cycle) {
		if obj := o.(*parkObj); obj.arrive != cycle {
			panic(fmt.Sprintf("object %d read at %d, arrives %d", obj.val, cycle, obj.arrive))
		}
		c.got++
		c.held = append(c.held, cycle+c.hold)
	}
	for len(c.held) > 0 && c.held[0] <= cycle {
		c.held = c.held[1:]
		c.released++
		c.pub.Mark()
	}
	if len(c.held) > 0 {
		c.busy.Inc()
		return
	}
	c.starved.Inc()
	c.lanesIdle.Add(float64(c.lanes))
	c.ParkCounting(&c.starved, 1) // two counters at once,
	c.ParkCounting(&c.lanesIdle, c.lanes)
	c.askedAt = cycle // until the wire carries something
}

type stallPair struct {
	src  *stallSource
	sink *stallSink
}

// buildStallPair wires source i to sink i. sinkFirst registers the sink
// ahead of the source: the write of a cycle then lands after the sink
// parked in it and wakes it at once, for a Clock on the very next cycle
// with nothing to credit. The other order, with a latency above 1,
// leaves the object in flight on the cycle the sink runs dry: a park
// refused.
func buildStallPair(sim *Simulator, i int, sinkFirst bool, src *stallSource, sink *stallSink) stallPair {
	src.Init(fmt.Sprintf("Source%d", i))
	sink.Init(fmt.Sprintf("Sink%d", i))
	wire := fmt.Sprintf("wire%d", i)
	src.out = sim.Binder.Provide(src.BoxName(), wire, 1, 1, src.lat)
	sim.Binder.Bind(sink.BoxName(), wire, &sink.in)
	sink.pub = sim.Publish(src.BoxName(), func(int64) {
		src.credits += sink.released
		sink.released = 0
	})
	sim.Stats.ShadowCounter(&src.blocked, src.BoxName()+".blockedCycles")
	sim.Stats.ShadowCounter(&sink.busy, sink.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&sink.starved, sink.BoxName()+".starvedCycles")
	sim.Stats.ShadowCounter(&sink.lanesIdle, sink.BoxName()+".idleLaneCycles")
	if sinkFirst {
		sim.Register(sink)
		sim.Register(src)
	} else {
		sim.Register(src)
		sim.Register(sink)
	}
	return stallPair{src, sink}
}

func buildStallMachine(interval int64) (*Simulator, []stallPair) {
	sim := NewSimulator(interval)
	const total = 90
	pairs := []stallPair{
		// Tight credit, slow sink: the source is blocked most cycles.
		buildStallPair(sim, 0, true,
			&stallSource{credits: 2, total: total, lat: 1, gapEvery: 1000},
			&stallSink{hold: 9, lanes: 4, askedAt: -1}),
		// Long gaps, fast sink, woken the cycle it parked.
		buildStallPair(sim, 1, true,
			&stallSource{credits: 8, total: total, lat: 1, gapEvery: 5, gap: 37},
			&stallSink{hold: 1, lanes: 3, askedAt: -1}),
		// The same with objects in flight when the sink runs dry.
		buildStallPair(sim, 2, false,
			&stallSource{credits: 8, total: total, lat: 4, gapEvery: 3, gap: 11},
			&stallSink{hold: 2, lanes: 7, askedAt: -1}),
		// Both at once: little credit, a long way, a short rest.
		buildStallPair(sim, 3, false,
			&stallSource{credits: 1, total: total, lat: 3, gapEvery: 7, gap: 5},
			&stallSink{hold: 4, lanes: 2, askedAt: -1}),
	}
	sim.SetDone(func() bool {
		for _, p := range pairs {
			if p.sink.got < total || len(p.sink.held) > 0 {
				return false
			}
		}
		return true
	})
	return sim, pairs
}

// accrueOutputs is everything a reader can take from the machine: the
// outputs of the finished run, and the barrier of cycle at, seen by a
// hook the way the checkpoint engine and the crash report see it.
type accrueOutputs struct {
	cycles       int64
	csv, summary string
	atSnapshot   map[string]float64
	atSections   [][]byte // core.Sim, core.Stats, core.Signals at that barrier

	// From the hook, every barrier: how often a sink slept counting, and
	// how often one had asked to park and was awake at the barrier all
	// the same (refused, or woken in the cycle it parked).
	sleptCounting, askedInVain int
	// The sinks clocked after their source: parks refused for an object
	// in flight (nothing is written after the sink's Clock,
	// so the wire is at the barrier what the park found), and how many of
	// them started an accrual all the same.
	refused, refusedAccruing int
	// The first barrier past warmup at which Sink1 sleeps counting.
	sleeping int64
}

// runStallMachine runs the machine to the end — in two Runs when
// splitAt > 0, the first stopped by its budget after cycle splitAt.
func runStallMachine(t *testing.T, interval int64, gated bool, at, splitAt int64) accrueOutputs {
	t.Helper()
	sim, pairs := buildStallMachine(interval)
	if gated {
		sim.SetClockGate(passGate{})
	}
	out := accrueOutputs{sleeping: -1}
	sim.OnEndCycle(func(cycle int64) {
		for i, p := range pairs {
			asleep := p.sink.parked
			if asleep && len(p.sink.counting) > 0 {
				out.sleptCounting++
				if i == 1 && out.sleeping < 0 && cycle > 100 {
					out.sleeping = cycle
				}
			}
			asked := p.sink.askedAt == cycle
			if asked && !asleep {
				out.askedInVain++
			}
			if i >= 2 && asked && p.sink.in.Pending() {
				out.refused++
				if len(p.sink.counting) > 0 || p.sink.starved.rate != 0 {
					out.refusedAccruing++
				}
			}
		}
		if cycle == at {
			out.atSnapshot = sim.Stats.Snapshot()
			snap := chkpt.Capture(chkpt.Meta{Cycle: sim.Cycle()}, []chkpt.Snapshotter{sim, sim.Stats, sim.Binder})
			for _, name := range snap.Sections() {
				out.atSections = append(out.atSections, snap.Section(name))
			}
		}
	})
	if splitAt > 0 {
		if err := sim.Run(splitAt + 1 - sim.Cycle()); !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("first Run: %v, want the cycle limit", err)
		}
	}
	if err := sim.Run(1_000_000); err != nil {
		t.Fatalf("interval=%d gated=%v: %v", interval, gated, err)
	}
	var csv, summary bytes.Buffer
	if err := sim.Stats.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := sim.Stats.WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}
	out.cycles, out.csv, out.summary = sim.Cycle(), csv.String(), summary.String()
	return out
}

// Sleeping through stall cycles must be invisible to every reader: the
// interval CSV at intervals fine enough to show a credit paid one cycle
// late, the summary, and — at a barrier where a box is parked counting —
// Stats.Snapshot and the core checkpoint sections, byte-equal to the
// every-cycle model; so must a second Run on a simulator whose first
// ended with a box parked counting.
func TestAccruingCounterMatchesEveryCycleLoop(t *testing.T) {
	for _, interval := range []int64{1, 3, 7, 64} {
		// Find a barrier the machine sleeps through, then compare there.
		probe := runStallMachine(t, interval, false, -1, 0)
		if probe.sleeping < 0 {
			t.Fatal("Sink1 never slept counting: the test shows nothing")
		}
		if probe.sleptCounting < 500 || probe.askedInVain < 20 || probe.refused < 20 {
			t.Fatalf("%d sink-cycles slept counting, %d parks asked in vain, %d refused: the test shows too little",
				probe.sleptCounting, probe.askedInVain, probe.refused)
		}
		at := probe.sleeping
		for _, splitAt := range []int64{0, at} {
			model := runStallMachine(t, interval, true, at, splitAt)
			if model.sleptCounting != 0 {
				t.Fatal("a box parked under the gate: the model is not the every-cycle loop")
			}
			name := fmt.Sprintf("interval=%d split=%d", interval, splitAt)
			got := runStallMachine(t, interval, false, at, splitAt)
			if got.refusedAccruing != 0 {
				t.Errorf("%s: %d of %d refused parks started an accrual", name, got.refusedAccruing, got.refused)
			}
			if got.cycles != model.cycles {
				t.Errorf("%s: %d cycles, model %d", name, got.cycles, model.cycles)
			}
			if got.csv != model.csv {
				t.Errorf("%s: interval CSV differs from the every-cycle model%s", name, firstDiff(got.csv, model.csv))
			}
			if got.summary != model.summary {
				t.Errorf("%s: summary differs from the every-cycle model%s", name, firstDiff(got.summary, model.summary))
			}
			if !reflect.DeepEqual(got.atSnapshot, model.atSnapshot) {
				t.Errorf("%s: Stats.Snapshot at a sleeping barrier (cycle %d) differs from the model", name, at)
			}
			if len(got.atSections) != 3 || !reflect.DeepEqual(got.atSections, model.atSections) {
				t.Errorf("%s: checkpoint sections at a sleeping barrier (cycle %d) differ from the model", name, at)
			}
		}
	}
}

// firstDiff names the first line two texts differ at.
func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("\nline %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf(" (%d lines, want %d)", len(g), len(w))
}

// After a Run nothing accrues: what was accruing is folded, Value no
// longer follows the cycle register, and a box clocked by hand parks in
// no stale simulator.
func TestRunEndSettlesAccruals(t *testing.T) {
	sim, pairs := buildStallMachine(0)
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	sink := pairs[0].sink
	before := sink.starved.Value()
	if sink.starved.rate != 0 || sink.sim != nil || sink.parked {
		t.Fatalf("after Run: rate %v, simulator %v, parked %v", sink.starved.rate, sink.sim, sink.parked)
	}
	sim.cycle += 1000
	if got := sink.starved.Value(); got != before {
		t.Errorf("a finished run's counter moved with the cycle register: %v -> %v", before, got)
	}
	sink.Clock(sim.cycle)
	if got := sink.starved.Value(); got != before+1 || len(sink.counting) != 0 {
		t.Errorf("hand-clocked after Run: counter %v (want %v), %d accruals staged", got, before+1, len(sink.counting))
	}
}
