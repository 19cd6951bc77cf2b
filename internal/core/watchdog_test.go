package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// stuckSender models the classic credit deadlock: it has work queued
// but only a fixed credit budget, and nothing ever releases credits.
// After the budget is spent the pipeline is legal but frozen.
type stuckSender struct {
	BoxBase
	out     *Signal
	ids     *IDSource
	credits int
	budget  int
}

func (b *stuckSender) Clock(cycle int64) {
	if b.credits > 0 {
		b.out.Write(cycle, newObj(b.ids, b.credits))
		b.credits--
	}
}

// Introspect reports the credit pool: the deadlock report should show
// it fully absorbed downstream.
func (b *stuckSender) Introspect() BoxInfo {
	return BoxInfo{Queues: func() []QueueStat {
		return []QueueStat{{Name: "sender.credits", Occupied: b.budget - b.credits, Capacity: b.budget}}
	}}
}

// blackhole never reads its input, so the sender's objects stay in
// flight forever.
type blackhole struct {
	BoxBase
	in *Signal
}

func (b *blackhole) Clock(cycle int64) {}

func buildStall(sim *Simulator) *stuckSender {
	s := &stuckSender{ids: &sim.IDs, credits: 2, budget: 2}
	s.Init("StuckSender")
	h := &blackhole{}
	h.Init("Blackhole")
	s.out = sim.Binder.Provide(s.BoxName(), "stall.wire", 1, 1, 0)
	sim.Binder.Bind(h.BoxName(), "stall.wire", &h.in)
	sim.Register(s)
	sim.Register(h)
	return s
}

// A synthetic credit deadlock must be detected within the configured
// window and produce a report naming the stalled box, its queue
// occupancy, and the stuck in-flight objects. It must NOT be reported
// as cycle-limit exhaustion.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	sim := NewSimulator(0)
	buildStall(sim)
	buildPipe(sim, 3) // live boxes that also go quiet once drained
	sim.SetWatchdog(20)
	sim.SetDone(func() bool { return false })
	err := sim.Run(100000)
	if errors.Is(err, ErrCycleLimit) {
		t.Fatal("deadlock burned the cycle budget instead of tripping the watchdog")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Error("error does not match ErrDeadlock")
	}
	rep := de.Report
	// Last traffic: pipe consumer reads its 3rd object at cycle 4.
	if rep.Cycle-rep.Since < 20 {
		t.Errorf("fired after %d quiet cycles, window is 20", rep.Cycle-rep.Since)
	}
	if sim.Cycle() > rep.Since+25 {
		t.Errorf("watchdog let the run spin to cycle %d (last progress %d)", sim.Cycle(), rep.Since)
	}
	var haveBox bool
	for _, b := range rep.Boxes {
		if b.Name == "StuckSender" && len(b.Queues) == 1 &&
			b.Queues[0].Occupied == 2 && b.Queues[0].Capacity == 2 {
			haveBox = true
		}
	}
	if !haveBox {
		t.Errorf("report missing StuckSender 2/2 occupancy: %+v", rep.Boxes)
	}
	var haveSig bool
	for _, s := range rep.Signal {
		if s.Name == "stall.wire" && s.Produced == 2 && len(s.InFlight) > 0 {
			haveSig = true
		}
	}
	if !haveSig {
		t.Errorf("report missing stall.wire in-flight objects: %+v", rep.Signal)
	}
	if len(rep.Recent) == 0 {
		t.Error("no trailing activity samples")
	}
	if !strings.Contains(rep.String(), "StuckSender") {
		t.Error("human-readable report does not name the stalled box")
	}
	cr := sim.Crash()
	if cr == nil || cr.Kind != "deadlock" || cr.Deadlock == nil {
		t.Fatalf("crash report %+v, want kind=deadlock with embedded report", cr)
	}
}

// A healthy run that completes, and a live run that merely exhausts
// its budget, must not trip the watchdog.
func TestWatchdogNoFalsePositive(t *testing.T) {
	sim := NewSimulator(0)
	_, c := buildPipe(sim, 5)
	sim.SetWatchdog(3) // tighter than the pipe's 2-cycle latency
	sim.SetDone(func() bool { return len(c.received) == 5 })
	if err := sim.Run(1000); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}

	sim = NewSimulator(0)
	buildPipe(sim, 1<<30) // produces forever
	sim.SetWatchdog(5)
	sim.SetDone(func() bool { return false })
	if err := sim.Run(50); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("live run hitting its budget: want ErrCycleLimit, got %v", err)
	}
}

// ticker makes progress invisible to signals (cache-hit work) and
// publishes it as a position register (BoxInfo.Steps).
type ticker struct {
	BoxBase
	n int
}

func (b *ticker) Clock(cycle int64) { b.n++ }

func (b *ticker) Introspect() BoxInfo { return BoxInfo{Steps: []*int{&b.n}} }

// Signal-silent progress reported through a box's Steps must hold the
// watchdog off.
func TestWatchdogHonorsSteps(t *testing.T) {
	sim := NewSimulator(0)
	buildStall(sim) // signal traffic dies at cycle 1
	tk := &ticker{}
	tk.Init("Ticker")
	sim.Register(tk)
	sim.SetWatchdog(10)
	sim.SetDone(func() bool { return false })
	if err := sim.Run(200); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("reporter progress ignored: want ErrCycleLimit, got %v", err)
	}
}

// Stop halts the run at the next cycle boundary with an
// ErrCanceled-matching error, with statistics flushed and a "canceled"
// black box recorded.
func TestStopCancelsRun(t *testing.T) {
	sim := NewSimulator(10)
	buildPipe(sim, 1<<30)
	sim.OnEndCycle(func(cycle int64) {
		if cycle == 25 {
			sim.Stop()
		}
	})
	sim.SetDone(func() bool { return false })
	err := sim.Run(100000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if sim.Cycle() != 26 {
		t.Errorf("stopped at cycle %d, want 26", sim.Cycle())
	}
	if cr := sim.Crash(); cr == nil || cr.Kind != "canceled" {
		t.Fatalf("crash report %+v, want kind=canceled", cr)
	}
}

// A canceled context stops the run and surfaces the cancellation
// cause; the partial statistics are still flushed.
func TestRunContextCancel(t *testing.T) {
	sim := NewSimulator(10)
	p, _ := buildPipe(sim, 1<<30)
	ctx, cancel := context.WithCancel(context.Background())
	cyclesStat := sim.Stats.Counter("Sim.cycles")
	sim.OnEndCycle(func(cycle int64) {
		cyclesStat.Inc()
		if cycle == 30 {
			cancel()
		}
	})
	sim.SetDone(func() bool { return false })
	err := sim.RunContext(ctx, 100000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("cancellation cause missing from %q", err)
	}
	// Cancelled at cycle 30; the synchronous context poll bounds the
	// stop at the next 1024-cycle boundary even if the watcher
	// goroutine never gets scheduled.
	if sim.Cycle() > 1100 {
		t.Fatalf("run ignored the canceled context until cycle %d", sim.Cycle())
	}
	if p.sent == 0 {
		t.Fatal("run did no work before cancel")
	}
	// The partial run's samples are flushed (interval 10, >= 30 cycles).
	if cycles, _ := sim.Stats.Samples("Sim.cycles"); len(cycles) < 3 {
		t.Fatalf("partial stats not flushed: %d sample rows", len(cycles))
	}
}

// An already-canceled context stops before the first cycle.
func TestRunContextPreCanceled(t *testing.T) {
	sim := NewSimulator(0)
	p, _ := buildPipe(sim, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim.SetDone(func() bool { return false })
	err := sim.RunContext(ctx, 1000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if p.sent > 1 {
		t.Fatalf("pre-canceled run clocked %d cycles", p.sent)
	}
}
