package core

import (
	"fmt"
	"reflect"
	"testing"
)

// The toy machine of the wake-ordering tests: boxes that record the
// cycles they are clocked on and follow a per-cycle script. With no
// script for a cycle a box parks, or with stay set stays awake.

type wakeBox struct {
	BoxBase
	stay   bool
	script map[int64]func()
	clocks []int64
	in     *Signal
	got    []int64 // cycles an object was read on
}

func (b *wakeBox) Clock(cycle int64) {
	b.clocks = append(b.clocks, cycle)
	if b.in != nil && len(b.in.Read(cycle)) > 0 {
		b.got = append(b.got, cycle)
	}
	if do := b.script[cycle]; do != nil {
		do()
		return
	}
	if !b.stay {
		b.Park()
	}
}

// wakeMachine registers n scripted boxes; runUntil runs them to a cycle.
func wakeMachine(n int) (*Simulator, []*wakeBox) {
	sim := NewSimulator(0)
	boxes := make([]*wakeBox, n)
	for i := range boxes {
		boxes[i] = &wakeBox{script: map[int64]func(){}}
		boxes[i].Init(fmt.Sprintf("Box%d", i))
		sim.Register(boxes[i])
	}
	return sim, boxes
}

func runUntil(t *testing.T, sim *Simulator, end int64) {
	t.Helper()
	sim.SetDone(func() bool { return sim.Cycle() >= end })
	if err := sim.Run(10 * end); err != nil {
		t.Fatal(err)
	}
}

func wantClocks(t *testing.T, b *wakeBox, want ...int64) {
	t.Helper()
	if !reflect.DeepEqual(b.clocks, want) {
		t.Errorf("%s clocked on %v, want %v", b.BoxName(), b.clocks, want)
	}
}

// A direct Wake is seen when the every-box loop would see the change
// that caused it: in this cycle by a box the walk has still to reach —
// later in the same word, or in a later word — and from the next cycle
// by a box it has passed.
func TestWakeReachesTheWalk(t *testing.T) {
	sim, b := wakeMachine(66) // two words: boxes 0..63 and 64, 65
	b[0].stay = true
	b[0].script[5] = func() { b[1].Wake(); b[64].Wake() }
	b[2].stay = true
	b[2].script[7] = func() { b[1].Wake() } // earlier in the same word
	b[65].stay = true
	b[65].script[9] = func() { b[3].Wake() } // an earlier word
	runUntil(t, sim, 20)
	wantClocks(t, b[1], 0, 5, 8)
	wantClocks(t, b[64], 0, 5)
	wantClocks(t, b[3], 0, 10)
}

// A signal write wakes its reader for the next cycle, even one the walk
// has still to reach: the object arrives no sooner, so a clock in the
// write's cycle would be wasted.
func TestSignalWriteWakesNextCycle(t *testing.T) {
	sim, b := wakeMachine(2)
	wire := sim.Binder.Provide(b[0].BoxName(), "wire", 1, 1, 0)
	sim.Binder.Bind(b[1].BoxName(), "wire", &b[1].in)
	b[0].stay = true
	b[0].script[5] = func() { wire.Write(5, &DynObject{}) }
	runUntil(t, sim, 20)
	wantClocks(t, b[1], 0, 6)
	if !reflect.DeepEqual(b[1].got, []int64{6}) {
		t.Errorf("object read on %v, want [6]", b[1].got)
	}
}

// ParkUntil(c) clocks the box at exactly c, with what it counted asleep
// settled before that Clock and visible at every barrier between.
func TestParkUntilClocksAtItsCycle(t *testing.T) {
	sim, b := wakeMachine(2)
	var stall Counter
	sim.Stats.ShadowCounter(&stall, "Box1.stallCycles")
	b[1].stay = true
	b[1].script[3] = func() {
		stall.Inc()
		b[1].ParkCounting(&stall, 1)
		b[1].ParkUntil(10)
	}
	var atWake float64
	var accruing bool
	b[1].script[10] = func() {
		atWake, accruing = stall.v, stall.rate != 0
		b[1].Park()
	}
	barrier := map[int64]float64{}
	sim.OnEndCycle(func(c int64) { barrier[c] = stall.Value() })
	runUntil(t, sim, 20)
	wantClocks(t, b[1], 0, 1, 2, 3, 10)
	if atWake != 7 || accruing {
		t.Errorf("at the Clock of cycle 10 the counter held %v (accruing %v), want 7 settled", atWake, accruing)
	}
	for c, want := range map[int64]float64{3: 1, 6: 4, 9: 7, 12: 7} {
		if barrier[c] != want {
			t.Errorf("counter %v at the barrier of cycle %d, want %v", barrier[c], c, want)
		}
	}
}

// A box woken before its timed wake is not clocked at the stale time,
// whether it parks again towards another cycle or with none.
func TestEarlyWokenBoxForgetsItsTime(t *testing.T) {
	sim, b := wakeMachine(2)
	b[1].script[0] = func() { b[1].ParkUntil(20) }
	b[1].script[5] = func() { b[1].ParkUntil(30) }
	b[0].stay = true
	b[0].script[5] = func() { b[1].Wake() }
	b[0].script[25] = func() { b[1].Wake() }
	runUntil(t, sim, 40)
	wantClocks(t, b[1], 0, 5, 25)
}

// TimedWakeUnderGate runs for ten cycles, under gate, a box that asks
// on cycle 2 to sleep until cycle 1000, and returns how often it was
// clocked and the most timed wakes the heap held at a barrier.
func TimedWakeUnderGate(gate ClockGate) (clocks, heap int) {
	sim, b := wakeMachine(1)
	b[0].script[2] = func() { b[0].ParkUntil(1000) }
	sim.SetClockGate(gate)
	sim.OnEndCycle(func(int64) { heap = max(heap, len(sim.wakeups)) })
	sim.SetDone(func() bool { return sim.Cycle() >= 10 })
	if err := sim.Run(100); err != nil {
		panic(err)
	}
	return len(b[0].clocks), heap
}

// A Run that ends with a box asleep towards its time leaves no heap
// behind.
func TestTimedWakesEndWithTheRun(t *testing.T) {
	sim, b := wakeMachine(1)
	b[0].script[20] = func() { b[0].ParkUntil(1000) }
	runUntil(t, sim, 20) // clocked at 0, and parks
	runUntil(t, sim, 30) // clocked at 20, where a Run starts, and parks towards 1000
	if len(sim.wakeups) != 0 || b[0].wakeAt != 0 {
		t.Errorf("after a Run that ended asleep: %d wakes on the heap, box waking at %d", len(sim.wakeups), b[0].wakeAt)
	}
	wantClocks(t, b[0], 0, 20)
}
