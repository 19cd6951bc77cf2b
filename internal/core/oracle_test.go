package core_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/core/coretest"
)

// toy is a machine of the differential oracle that runs to its done
// predicate.
func toy(sim *core.Simulator, run func() error, frames func() [][]byte) *coretest.Machine {
	if run == nil {
		run = func() error { return sim.Run(1_000_000) }
	}
	return &coretest.Machine{Sim: sim, Run: run, Frames: frames}
}

// Parking changes nothing the park/wake toy computes while it skips
// most box clocks.
func TestParkWakeScenario(t *testing.T) {
	var clocks []func() int
	coretest.Check(t, func(testing.TB) *coretest.Machine {
		sim, frames, n := core.ParkMachine()
		clocks = append(clocks, n)
		return toy(sim, nil, frames)
	})
	if parked, every := clocks[0](), clocks[1](); parked*2 > every {
		t.Errorf("parking skipped too little: %d box clocks, %d with every box clocked", parked, every)
	}
}

// Sleeping through stall cycles is invisible to every reader at
// intervals fine enough to show a credit paid one cycle late, and so is
// a second Run on a simulator whose first ended with a box parked
// counting — found by a first pass. The negative control: sinks that
// sleep through their idle lanes at one per cycle, not one per lane (the
// class of a stall counter parked at the wrong rate), are caught.
func TestAccrualScenario(t *testing.T) {
	for _, interval := range []int64{1, 3, 7, 64} {
		var probes []*core.StallProbe
		scenario := func(splitAt int64, miscount bool) coretest.Scenario {
			return func(testing.TB) *coretest.Machine {
				sim, run, probe := core.StallMachine(interval, splitAt, miscount)
				probes = append(probes, probe)
				return toy(sim, run, nil)
			}
		}
		coretest.Check(t, scenario(0, false))
		p := probes[0]
		if p.Sleeping < 0 || p.SleptCounting < 500 || p.AskedInVain < 20 || p.Refused < 20 {
			t.Fatalf("interval %d: %+v: the test shows too little", interval, *p)
		}
		if p.RefusedAccruing != 0 || probes[1].SleptCounting != 0 {
			t.Errorf("interval %d: %d of %d refused parks started an accrual, %d sleeps under the gate",
				interval, p.RefusedAccruing, p.Refused, probes[1].SleptCounting)
		}
		coretest.Check(t, scenario(p.Sleeping, false))
		if _, diffs := coretest.Diff(t, scenario(0, true)); len(diffs) == 0 {
			t.Errorf("interval %d: idle lanes accrued at the wrong rate went unnoticed", interval)
		}
	}
}

// The core-level checkpoint round trip over the Simulator, Stats and
// Binder sections: with an interval of 7 the engine captures at the
// first quiesced barrier at least 7 cycles after the last — the pipes
// drain at 13 (the last write of the first burst, at cycle 9, arrives
// there), the next are 7 cycles on, and the last is the final barrier —
// without perturbing the run, and a run restored from any of them ends
// as the uninterrupted one, the final one included.
func TestCheckpointRoundTripCore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "core.ckpt")
	machine := func(interval int64) *coretest.Machine {
		sim, eng, parts, recv := core.CheckpointMachine(path, interval)
		run := func() error { return sim.Run(200) }
		return &coretest.Machine{Sim: sim, Run: run, Resume: run, Frames: recv, Checkpoints: eng, Path: path,
			Restore: func(file []byte) error {
				snap, err := chkpt.Read(bytes.NewReader(file))
				if err != nil {
					return err
				}
				return chkpt.Restore(snap, parts, false)
			}}
	}
	out := coretest.Check(t, func(testing.TB) *coretest.Machine { return machine(7) })
	var cycles []int64
	for _, c := range out.Captures {
		cycles = append(cycles, c.Cycle)
	}
	if !slices.Equal(cycles, []int64{13, 20, 27, 43}) || out.Cycles != 44 {
		t.Errorf("captures at cycles %v of %d, want 13, 20, 27 and 43 of 44", cycles, out.Cycles)
	}
	bare := coretest.Record(t, machine(0))
	bare.Captures = out.Captures // the one output capturing adds
	for _, d := range out.Diff("with nothing captured", bare) {
		t.Error(d)
	}
}

// Under a gate nothing parks, so nothing goes on the heap.
func TestTimedWakesUnderAGate(t *testing.T) {
	if clocks, heap := core.TimedWakeUnderGate(coretest.PassAll{}); clocks != 10 || heap != 0 {
		t.Errorf("under a gate: %d clocks in 10 cycles, heap held %d", clocks, heap)
	}
}

// A Run is one goroutine: the loop clocks every box on the goroutine
// that called Run, asked for workers or not; a cancellable context adds
// only its watcher, and the Run leaves nothing behind. Only goroutines
// started by this module's code are counted (coretest.Goroutines): the
// runtime's and the test framework's come and go on their own.
func TestRunIsOneGoroutine(t *testing.T) {
	for _, cancellable := range []bool{false, true, false} {
		sim := core.NewSimulator(0)
		done, _ := core.Fanout(sim, 4, 50)
		sim.SetDone(done)
		sim.SetWorkers(2)
		before := coretest.Goroutines(t)
		want := before
		ctx := context.Background()
		if cancellable {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
			want++
		}
		sim.OnEndCycle(func(cycle int64) {
			if got := coretest.Goroutines(t); got != want {
				t.Fatalf("cancellable=%v cycle %d: %d goroutines, want %d", cancellable, cycle, got, want)
			}
		})
		if err := sim.RunContext(ctx, 1000); err != nil {
			t.Fatal(err)
		}
		if got := coretest.Goroutines(t); got != before {
			t.Fatalf("cancellable=%v: %d goroutines after the run, %d before", cancellable, got, before)
		}
	}
}

// SetWorkers is a vestige of the parallel clock loop (ROADMAP item 7):
// a run that asks for workers is the serial run — same cycle count,
// same delivery order, byte-identical statistics CSV and signal trace.
func TestParallelMatchesSerialCore(t *testing.T) {
	run := func(workers int) *coretest.Outputs {
		sim := core.NewSimulator(10)
		done, received := core.Fanout(sim, 5, 37)
		var trace bytes.Buffer
		tr := core.NewSigTraceWriter(&trace)
		sim.Binder.SetTracer(tr)
		sim.SetWorkers(workers)
		sim.SetDone(done)
		return coretest.Record(t, &coretest.Machine{Sim: sim,
			Run: func() error { return sim.Run(1000) },
			Frames: func() [][]byte {
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				return append(received(), trace.Bytes())
			}})
	}
	serial := run(0)
	if serial.Err != "" {
		t.Fatal(serial.Err)
	}
	for _, workers := range []int{2, 3, 8} {
		for _, d := range serial.Diff(fmt.Sprintf("with workers=%d", workers), run(workers)) {
			t.Error(d)
		}
	}
}
