package attila_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"attila"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// buildPipeline assembles a real workload on a fresh case-study
// pipeline without running it.
func buildPipeline(t *testing.T, window int64) (*gpu.Pipeline, []gpu.Command) {
	t.Helper()
	cfg := gpu.CaseStudy(2, gpu.ScheduleWindow)
	cfg.WatchdogWindow = window
	pipe, err := gpu.New(cfg, 128, 96)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultParams()
	p.Width, p.Height, p.Frames = 128, 96, 1
	cmds, _, err := workload.Build("ut2004", pipe, p)
	if err != nil {
		t.Fatal(err)
	}
	return pipe, cmds
}

// csvRows counts data rows in a dumped statistics CSV.
func csvRows(t *testing.T, pipe *gpu.Pipeline) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pipe.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "cycle,") {
		t.Fatalf("CSV header missing: %q", lines[0])
	}
	return len(lines) - 1
}

// A run that exhausts its cycle budget must identify as ErrCycleLimit
// and still flush the interval statistics and the summary.
func TestCycleLimitStillFlushesStats(t *testing.T) {
	pipe, cmds := buildPipeline(t, 0)
	// The full run needs hundreds of thousands of cycles; 50K
	// cannot finish but covers several 10K stat intervals.
	err := pipe.Run(cmds, 50_000)
	if !errors.Is(err, core.ErrCycleLimit) {
		t.Fatalf("want ErrCycleLimit, got %v", err)
	}
	if rows := csvRows(t, pipe); rows < 2 {
		t.Fatalf("only %d CSV rows flushed after cycle limit", rows)
	}
	var sum bytes.Buffer
	if err := pipe.DumpStats(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "MC.readBytes") {
		t.Fatal("summary missing cumulative stats")
	}
	// Cycle-budget exhaustion is a bound, not a crash: no black box.
	if c := pipe.Sim.Crash(); c != nil {
		t.Fatalf("unexpected crash report %+v", c)
	}
}

// Cancelling the context mid-run surfaces ErrCanceled, keeps the
// partial statistics, and records a "canceled" black box.
func TestCancelStillFlushesStats(t *testing.T) {
	pipe, cmds := buildPipeline(t, 0)
	// Cancel from inside the run, a fraction of the way through it:
	// a wall-clock timeout races the host, and a fast one finishes
	// the scene first.
	ctx, cancel := context.WithCancel(context.Background())
	pipe.Sim.OnEndCycle(func(cycle int64) {
		if cycle == 30_000 {
			cancel()
		}
	})
	err := pipe.RunContext(ctx, cmds, attila.MaxCycles)
	cancel()
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if rows := csvRows(t, pipe); rows < 1 {
		t.Fatal("no CSV rows flushed after cancellation")
	}
	crash := pipe.Sim.Crash()
	if crash == nil || crash.Kind != "canceled" {
		t.Fatalf("crash report %+v", crash)
	}
}

// An armed watchdog must stay quiet through a complete healthy run of
// a real workload: detection is purely diagnostic and must never
// change results on working pipelines.
func TestWatchdogQuietOnFullRun(t *testing.T) {
	pipe, cmds := buildPipeline(t, 50_000)
	if err := pipe.Run(cmds, attila.MaxCycles); err != nil {
		t.Fatalf("armed watchdog broke a healthy run: %v", err)
	}
	if len(pipe.Frames()) != 1 {
		t.Fatalf("rendered %d frames", len(pipe.Frames()))
	}
}
