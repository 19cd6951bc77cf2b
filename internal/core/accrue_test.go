package core

import (
	"errors"
	"fmt"
	"testing"
)

// stallPairs are the credit machine's pairs of the accrual tests: one
// object a sending cycle, at one latency each.
func stallPairs() []creditPair {
	pair := func(sinkFirst bool, credits, lat, gapEvery int, gap, hold int64, lanes int) creditPair {
		return creditPair{&creditSource{credits: credits, burst: 1, maxLat: lat, gapEvery: gapEvery, gap: gap},
			&creditSink{hold: hold, lanes: lanes}, sinkFirst}
	}
	return []creditPair{
		pair(true, 2, 1, 1000, 0, 9, 4), // tight credit, slow sink: the source is blocked most cycles
		pair(true, 8, 1, 5, 37, 1, 3),   // long gaps, fast sink, woken the cycle it parked
		pair(false, 8, 4, 3, 11, 2, 7),  // the same with objects in flight when the sink runs dry
		pair(false, 1, 3, 7, 5, 4, 2),   // both at once: little credit, a long way, a short rest
	}
}

func buildStallMachine(interval int64) (*Simulator, []creditPair) {
	pairs := stallPairs()
	return buildCreditMachine(interval, 90, pairs...), pairs
}

// StallProbe is what the accrual toy's sinks did, counted at every
// barrier: the evidence that a run of it shows something.
type StallProbe struct {
	// How often a sink slept counting, and how often one had asked to
	// park and was awake at the barrier all the same (refused, or woken
	// in the cycle it parked).
	SleptCounting, AskedInVain int
	// The sinks clocked after their source: parks refused for an object
	// in flight (nothing is written after the sink's Clock, so the wire
	// is at the barrier what the park found), and how many of them
	// started an accrual all the same.
	Refused, RefusedAccruing int
	// The first barrier past warmup at which Sink1 sleeps counting.
	Sleeping int64
}

// StallMachine builds the accrual toy for the differential oracle
// (oracle_test.go) at a statistics interval. Its run stops once, on its
// budget, after cycle splitAt when that is positive, and goes on with a
// second Run. With miscount its sinks sleep through their idle lanes
// at one per cycle instead of one per lane: the oracle must tell.
func StallMachine(interval, splitAt int64, miscount bool) (*Simulator, func() error, *StallProbe) {
	sim, pairs := buildStallMachine(interval)
	for _, p := range pairs {
		p.sink.miscount = miscount
	}
	probe := &StallProbe{Sleeping: -1}
	sim.OnEndCycle(func(cycle int64) {
		for i, p := range pairs {
			asleep := p.sink.parked
			if asleep && len(p.sink.counting) > 0 {
				probe.SleptCounting++
				if i == 1 && probe.Sleeping < 0 && cycle > 100 {
					probe.Sleeping = cycle
				}
			}
			asked := p.sink.askedAt == cycle
			if asked && !asleep {
				probe.AskedInVain++
			}
			if i >= 2 && asked && p.sink.in.Pending() {
				probe.Refused++
				if len(p.sink.counting) > 0 || p.sink.starved.rate != 0 {
					probe.RefusedAccruing++
				}
			}
		}
	})
	run := func() error {
		if splitAt > 0 {
			if err := sim.Run(splitAt + 1 - sim.Cycle()); !errors.Is(err, ErrCycleLimit) {
				return fmt.Errorf("first Run: %v, want the cycle limit", err)
			}
		}
		return sim.Run(1_000_000)
	}
	return sim, run, probe
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
