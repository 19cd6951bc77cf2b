package attila_test

// End-to-end fault injection: every chaos fault class must surface as
// the typed simulator error its real-world counterpart would, and the
// same plan must reproduce the same fault at the same cycle.

import (
	"errors"
	"testing"

	"attila/internal/chaos"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// chaosRun builds a baseline pipeline, wires the parsed plan into it,
// and runs the simple workload to whatever end the faults dictate.
func chaosRun(t *testing.T, spec string, watchdog int64) error {
	t.Helper()
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.WatchdogWindow = watchdog
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(plan, pipe.Sim.Binder)
	pipe.Sim.SetClockGate(inj)
	pipe.MemController().SetFault(inj)
	pipe.Sim.OnEndCycle(inj.EndCycle)
	cmds, _, err := workload.Build("simple", pipe, workload.Params{
		Width: p.Width, Height: p.Height, Frames: p.Frames, Aniso: p.Aniso, Seed: p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pipe.Run(cmds, p.MaxCycles)
}

func TestChaosPanicFault(t *testing.T) {
	err := chaosRun(t, "seed=7,panic@cycle=2000:CommandProcessor", 0)
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("got %v, want ErrPanic", err)
	}
	var ce *core.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("no CrashError in %v", err)
	}
	if ce.Box != "CommandProcessor" {
		t.Errorf("crashed box %q, want CommandProcessor", ce.Box)
	}
	if ce.Cycle != 2000 {
		t.Errorf("crash at cycle %d, want 2000", ce.Cycle)
	}
}

// Same plan, same workload: the fault reproduces identically.
func TestChaosDeterminism(t *testing.T) {
	spec := "seed=3,panic@cycle=1500:Streamer"
	first := chaosRun(t, spec, 0)
	second := chaosRun(t, spec, 0)
	if first == nil || second == nil {
		t.Fatalf("expected injected failures, got %v and %v", first, second)
	}
	if first.Error() != second.Error() {
		t.Errorf("same plan produced different failures:\n  %v\n  %v", first, second)
	}
}

// An open-ended stall of the command processor starves the pipeline;
// the watchdog must report it as a deadlock, not hang the test. The
// stall starts at cycle 0: stalling a box mid-stream loses whatever
// is in flight toward it, which the signal model reports as its own
// violation (*SimError) before the watchdog can fire.
func TestChaosStallFault(t *testing.T) {
	err := chaosRun(t, "stall=CommandProcessor:0-0", 20_000)
	if !errors.Is(err, core.ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
}

// Dropping every memory transaction starves whoever issued it.
func TestChaosMemDropFault(t *testing.T) {
	err := chaosRun(t, "mem=drop:1", 20_000)
	if !errors.Is(err, core.ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
}

// Delayed and duplicated memory transactions degrade but must not
// wedge or corrupt the run: with the fault bounded to a low rate, the
// run still completes and renders.
func TestChaosMemDelayCompletes(t *testing.T) {
	if err := chaosRun(t, "seed=11,mem=delay:0.01:32", 100_000); err != nil {
		t.Fatalf("delayed transactions should still complete: %v", err)
	}
}
