package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"attila/internal/chkpt"
)

// walkWatchdog is the watchdog of 91dbc46, kept as the model: each
// cycle it walked every wire's counters and called every reporter, and
// it kept the trailing samples in a slice it resliced.
type walkWatchdog struct {
	window    int64
	signals   []*Signal
	reporters []interface{ oldProgressCount() int64 }

	lastTotal    uint64
	lastProgress int64
	prevProd     uint64
	prevCons     uint64
	recent       []ActivitySample
	restored     bool
}

func (w *walkWatchdog) reset(s *Simulator) {
	w.signals = s.Binder.Signals()
	w.reporters = w.reporters[:0]
	for _, b := range s.boxes {
		if r, ok := b.(interface{ oldProgressCount() int64 }); ok {
			w.reporters = append(w.reporters, r)
		}
	}
	if w.restored {
		w.restored = false
		w.recent = w.recent[:0]
		return
	}
	w.lastProgress = s.cycle
	w.lastTotal = 0
	w.prevProd, w.prevCons = 0, 0
	w.recent = w.recent[:0]
}

func (w *walkWatchdog) check(s *Simulator, cycle int64) *DeadlockReport {
	var prod, cons uint64
	for _, sig := range w.signals {
		p, c := sig.Traffic()
		prod += p
		cons += c
	}
	total := prod + cons
	for _, r := range w.reporters {
		total += uint64(r.oldProgressCount())
	}
	w.recent = append(w.recent, ActivitySample{
		Cycle: cycle, Produced: prod - w.prevProd, Consumed: cons - w.prevCons,
	})
	if len(w.recent) > recentWindow {
		w.recent = w.recent[1:]
	}
	w.prevProd, w.prevCons = prod, cons
	if total != w.lastTotal {
		w.lastTotal = total
		w.lastProgress = cycle
		return nil
	}
	if cycle-w.lastProgress < w.window {
		return nil
	}
	// The rest of the report is built from the machine, not from the
	// watchdog's bookkeeping: borrow it.
	r := (&watchdog{window: w.window, lastProgress: w.lastProgress}).report(s, cycle)
	r.Recent = append([]ActivitySample(nil), w.recent...)
	return r
}

// section is the core.Sim checkpoint section the model would write.
func (w *walkWatchdog) section(s *Simulator) []byte {
	var e chkpt.Encoder
	e.I64(s.cycle)
	e.U64(s.IDs.next)
	e.Bool(true)
	e.I64(w.lastProgress)
	e.U64(w.lastTotal)
	e.U64(w.prevProd)
	e.U64(w.prevCons)
	return e.Bytes()
}

// grinder works without touching a wire: every third cycle it counts
// an event, every fifth it advances a position register, until its
// quota is used up.
type grinder struct {
	BoxBase
	events Progress
	pos    int
	quota  int
}

func (g *grinder) Clock(cycle int64) {
	if g.quota == 0 {
		return
	}
	if cycle%3 == 0 {
		g.events.Add(2)
		g.quota--
	}
	if cycle%5 == 0 {
		g.pos++
	}
}

func (g *grinder) Introspect() BoxInfo { return BoxInfo{Steps: []*int{&g.pos}} }

func (g *grinder) oldProgressCount() int64 { return int64(g.events.Value()) + int64(g.pos) }

// portClient talks to a consumer box through a wire it provides under a
// name that is no box's, as the memory ports do.
type portClient struct {
	BoxBase
	out  *Signal
	ids  *IDSource
	left int
}

func (p *portClient) Clock(cycle int64) {
	if p.left > 0 && cycle%4 == 1 {
		p.out.Write(cycle, newObj(p.ids, p.left))
		p.left--
	}
}

// machine is the test topology: a live pipe, a credit deadlock, a
// signal-silent worker and a port-style wire.
type machine struct {
	sim   *Simulator
	prod  *producer
	cons  *consumer
	stuck *stuckSender
	grind *grinder
	port  *portClient
	sink  *consumer
}

func buildMachine() *machine {
	sim := NewSimulator(0)
	m := &machine{sim: sim}
	m.prod, m.cons = buildPipe(sim, 0)
	m.stuck = buildStall(sim)
	m.stuck.credits = 0
	m.grind = &grinder{}
	m.grind.Init("Grinder")
	sim.Stats.ShadowProgress(&m.grind.events, "Grinder.events")
	sim.Register(m.grind)
	m.port = &portClient{ids: &sim.IDs}
	m.port.Init("PortOwner")
	m.sink = &consumer{}
	m.sink.Init("Sink")
	m.port.out = sim.Binder.Provide("Port0", "Port0.Req", 1, 1, 0)
	sim.Binder.Bind(m.sink.BoxName(), "Port0.Req", &m.sink.in)
	sim.Register(m.port)
	sim.Register(m.sink)
	return m
}

// load gives every box its work for one phase.
func (m *machine) load(sends, quota, requests, credits int) {
	m.prod.count += sends
	m.grind.quota += quota
	m.port.left += requests
	m.stuck.credits += credits
}

func (m *machine) drained() bool {
	return m.prod.sent == m.prod.count && m.grind.quota == 0 && m.port.left == 0 && m.sim.Binder.Idle()
}

// shadow runs the model beside the simulator's watchdog: at every
// barrier the two must agree on the last progress cycle, the
// fingerprint and the checkpoint section. The caller resets the model
// before each Run; last returns the model's report of the cycle the run
// ended on.
func shadow(t *testing.T, label string, sim *Simulator, model *walkWatchdog) (last func() *DeadlockReport) {
	t.Helper()
	var rep *DeadlockReport
	bad := 0
	sim.OnEndCycle(func(cycle int64) {
		rep = model.check(sim, cycle)
		since, fp, ok := sim.WatchdogProgress()
		var e chkpt.Encoder
		sim.SnapshotState(&e)
		if (!ok || since != model.lastProgress || fp != model.lastTotal || !bytes.Equal(e.Bytes(), model.section(sim))) && bad < 3 {
			bad++
			t.Errorf("%s cycle %d: watchdog says last progress %d, fingerprint %d, traffic %d/%d; the per-cycle walk %d, %d, %d/%d",
				label, cycle, since, fp, sim.wd.prevProd, sim.wd.prevCons,
				model.lastProgress, model.lastTotal, model.prevProd, model.prevCons)
		}
	})
	return func() *DeadlockReport { return rep }
}

// runToDeadlock runs a shadowed machine into its credit deadlock and
// holds the report to the model's.
func runToDeadlock(t *testing.T, label string, m *machine, model *walkWatchdog, last func() *DeadlockReport) *DeadlockReport {
	t.Helper()
	m.sim.SetDone(func() bool { return false })
	model.reset(m.sim)
	err := m.sim.Run(100_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("%s: want a deadlock, got %v", label, err)
	}
	if want := last(); !reflect.DeepEqual(de.Report, want) {
		t.Errorf("%s: deadlock report\n%+v\nthe per-cycle walk's\n%+v", label, de.Report, want)
	}
	return de.Report
}

// The watchdog reads the simulator's tallies; the walk it replaced read
// every wire and reporter. Both run at every barrier of a machine with a
// live pipe, signal-silent work, a port-style wire and a credit
// deadlock: on a machine that deadlocks at once (so that the window
// sizes leave the trailing samples partly filled, just wrapped and
// wrapped many times), then across a first Run that drains, a second
// Run on the same simulator (which takes the tallies over anew), and the
// same second phase on a simulator restored from the first's sections.
// The deadlock reports, trailing samples included, must come out equal.
func TestWatchdogMatchesPerCycleWalk(t *testing.T) {
	for _, window := range []int64{8, 32, 2000} {
		label := fmt.Sprintf("window=%d", window)

		c := buildMachine()
		c.sim.SetWatchdog(window)
		c.load(0, 0, 0, 2)
		modelC := &walkWatchdog{window: window}
		rep := runToDeadlock(t, label+" at once", c, modelC, shadow(t, label+" at once", c.sim, modelC))
		if n, want := int64(len(rep.Recent)), min(rep.Cycle+1, recentWindow); n != want {
			t.Errorf("%s: %d trailing samples after %d cycles, want %d", label, n, rep.Cycle+1, want)
		}

		a := buildMachine()
		a.sim.SetWatchdog(window)
		a.load(40, 25, 9, 0)
		a.sim.SetDone(a.drained)
		modelA := &walkWatchdog{window: window}
		lastA := shadow(t, label+" machine A", a.sim, modelA)
		modelA.reset(a.sim)
		if err := a.sim.Run(10_000); err != nil {
			t.Fatalf("%s: phase 1: %v", label, err)
		}

		// The drained machine, as its checkpoint sections.
		var simSec, sigSec, statSec chkpt.Encoder
		a.sim.SnapshotState(&simSec)
		a.sim.Binder.SnapshotState(&sigSec)
		a.sim.Stats.SnapshotState(&statSec)
		b := buildMachine()
		b.sim.SetWatchdog(window)
		for _, r := range []struct {
			part chkpt.Snapshotter
			data []byte
		}{{b.sim, simSec.Bytes()}, {b.sim.Binder, sigSec.Bytes()}, {b.sim.Stats, statSec.Bytes()}} {
			if err := r.part.RestoreState(chkpt.NewDecoder(r.data)); err != nil {
				t.Fatal(err)
			}
		}
		b.prod.count, b.prod.sent = a.prod.count, a.prod.sent
		b.grind.pos = a.grind.pos
		modelB := &walkWatchdog{
			window: window, restored: true,
			lastProgress: modelA.lastProgress, lastTotal: modelA.lastTotal,
			prevProd: modelA.prevProd, prevCons: modelA.prevCons,
		}
		lastB := shadow(t, label+" machine B", b.sim, modelB)

		// Phase 2 ends in the credit deadlock, on both.
		a.load(30, 400, 5, 2)
		b.load(30, 400, 5, 2)
		repA := runToDeadlock(t, label+" continued", a, modelA, lastA)
		repB := runToDeadlock(t, label+" restored", b, modelB, lastB)
		// The restored machine stops where the continued one does.
		if repA.Cycle != repB.Cycle || repA.Since != repB.Since {
			t.Errorf("%s: continued run reports %+v, restored run %+v", label, repA, repB)
		}
	}
}
