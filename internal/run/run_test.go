package run

// Session-vs-hand-wired equivalence. Each of the three callers of this
// package used to assemble its run by hand; the statement order each
// one had at 0c54069 is kept below as the test-side model (wireCLI,
// wireRetry, wireJob), the way PRs 12-17 kept their parents. A
// scenario drives the model and the session through the same steps and
// every observable must be equal: everything coretest.Record keeps —
// the run's error, the statistics at every barrier, CSV, summary,
// frames, every checkpoint file written along the way — with the
// metrics NDJSON (frozen clock) and the span dump.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"attila/internal/chaos"
	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/core/coretest"
	"attila/internal/gpu"
	"attila/internal/mem"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/workload"
)

// The scaled-down run every test here uses: multi-frame, so quiesced
// barriers (where checkpoints can fire) exist mid-run.
const (
	testW, testH = 96, 64
	testBudget   = int64(200_000_000)
	testWorkload = "simple"
)

var testParams = workload.Params{Width: testW, Height: testH, Frames: 3, Aniso: 2, Seed: 1}

func testConfig(workers int) gpu.Config {
	cfg := gpu.Baseline()
	cfg.Workers = workers
	cfg.WatchdogWindow = 1_000_000
	return cfg
}

func testSpans() trace.Options { return trace.Options{SampleRate: 64, Seed: 1} }

// frozenBus is a metrics bus whose wall clock stands still, so its
// NDJSON is a pure function of simulation state.
func frozenBus() *obsv.BusOptions {
	frozen := time.Unix(1000, 0)
	return &obsv.BusOptions{Now: func() time.Time { return frozen }}
}

// assembly is what either side hands back: the wired machine and how
// to run it.
type assembly struct {
	pipe *gpu.Pipeline
	bus  *obsv.Bus
	col  *trace.Collector
	eng  *chkpt.Engine
	run  func(context.Context) error
}

func fromSession(s *Session) *assembly {
	return &assembly{pipe: s.Pipe, bus: s.Bus, col: s.Spans, eng: s.Engine, run: s.Run}
}

// record runs the assembly through the differential oracle's recorder,
// whose hooks come after the assembly's own — where a caller's hooks
// sit. Its frames are the metrics NDJSON, the span dump and the rendered
// frames; its captures, every checkpoint file written to path.
func (a *assembly) record(t *testing.T, path string) *coretest.Outputs {
	t.Helper()
	return coretest.Record(t, &coretest.Machine{
		Sim: a.pipe.Sim, Checkpoints: a.eng, Path: path,
		Run: func() error { return a.run(context.Background()) },
		Frames: func() [][]byte {
			var nd, sp bytes.Buffer
			if a.bus != nil {
				if err := a.bus.WriteNDJSON(&nd); err != nil {
					t.Fatal(err)
				}
			}
			if a.col != nil {
				if err := a.col.WriteSpansNDJSON(&sp); err != nil {
					t.Fatal(err)
				}
			}
			frames := [][]byte{nd.Bytes(), sp.Bytes()}
			for _, f := range a.pipe.Frames() {
				frames = append(frames, f.Pix)
			}
			return frames
		},
	})
}

// runLength measures the test workload once; faults and intervals are
// placed relative to it.
var runLengthCache int64

func runLength(t *testing.T) int64 {
	t.Helper()
	if runLengthCache == 0 {
		s, err := Start(Spec{Config: testConfig(0), Width: testW, Height: testH,
			Source: Workload(testWorkload, testParams), MaxCycles: testBudget})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runLengthCache = s.Pipe.Cycles()
	}
	return runLengthCache
}

// ---- shape 1: cmd/attilasim — spans + bus + checkpoint, pre-read stream ----

// traceStream is a command stream built the way cmd/tracegen builds a
// trace file, with the fingerprint cmd/attilasim derives from it.
func traceStream(t *testing.T) ([]gpu.Command, string) {
	t.Helper()
	alloc := mem.NewAllocator(uint32(3*((testW+7)/8*((testH+7)/8)*256)+1<<20), 192<<20)
	cmds, hdr, err := workload.Build(testWorkload, alloc, testParams)
	if err != nil {
		t.Fatal(err)
	}
	return cmds, fmt.Sprintf("%s %dx%d frames[%d:%d] cmds=%d", hdr.Label, hdr.Width, hdr.Height, 0, -1, len(cmds))
}

// wireCLI is cmd/attilasim's run() at 0c54069: spans, bus, restore,
// THEN the engine.
func wireCLI(t *testing.T, workers int, cmds []gpu.Command, fingerprint, ckptPath string, interval int64, restoreFrom string) *assembly {
	t.Helper()
	pipe, err := gpu.New(testConfig(workers), testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	col := pipe.EnableSpanTracing(testSpans())
	opts := *frozenBus()
	opts.Frames = func() int64 { return int64(pipe.CP.Frames()) }
	opts.Spans = col
	bus := obsv.NewBus(pipe.Sim, opts)
	busExtra := []chkpt.Snapshotter{col, bus}
	restored := false
	if restoreFrom != "" {
		snap, err := chkpt.ReadFile(restoreFrom)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Meta.Workload != fingerprint {
			t.Fatalf("checkpoint is for workload %q", snap.Meta.Workload)
		}
		if err := pipe.RestoreCheckpoint(snap, cmds, busExtra...); err != nil {
			t.Fatal(err)
		}
		restored = true
	}
	eng := pipe.EnableCheckpoints(ckptPath, fingerprint, interval, busExtra...)
	return &assembly{pipe: pipe, bus: bus, col: col, eng: eng, run: func(ctx context.Context) error {
		if restored {
			return pipe.ResumeContext(ctx, testBudget)
		}
		return pipe.RunContext(ctx, cmds, testBudget)
	}}
}

// scenarioCLI: a full checkpointed run, then a restore from its first
// checkpoint run to the end.
func scenarioCLI(t *testing.T, workers int, session bool) []*coretest.Outputs {
	dir := t.TempDir()
	ckpt, mid := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "mid.ckpt")
	interval := runLength(t) / 8
	cmds, fingerprint := traceStream(t)
	wire := func(restoreFrom string) *assembly {
		if !session {
			return wireCLI(t, workers, cmds, fingerprint, ckpt, interval, restoreFrom)
		}
		s, err := Start(Spec{
			Config: testConfig(workers), Width: testW, Height: testH,
			Source: Commands(cmds, fingerprint), MaxCycles: testBudget,
			Spans: testSpans(), Bus: frozenBus(),
			Checkpoint:  Checkpoint{Path: ckpt, Interval: interval},
			RestoreFrom: restoreFrom,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fromSession(s)
	}
	first := wire("").record(t, ckpt)
	if len(first.Captures) < 2 {
		t.Fatalf("only %d checkpoint(s) in a %d-cycle run at interval %d", len(first.Captures), first.Cycles, interval)
	}
	if err := os.WriteFile(mid, first.Captures[0].File, 0o600); err != nil {
		t.Fatal(err)
	}
	return []*coretest.Outputs{first, wire(mid).record(t, ckpt)}
}

// ---- shape 2: internal/experiments — chaos + checkpoint + retry ----

// wireRetry is experiments.attemptOne at 0c54069: chaos with all three
// calls on the first attempt, workload built on the pipeline, engine,
// then the lenient restore on later attempts.
func wireRetry(t *testing.T, workers int, plan *chaos.Plan, attempt int, ckptPath string, interval int64) *assembly {
	t.Helper()
	pipe, err := gpu.New(testConfig(workers), testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil && attempt == 1 {
		inj := chaos.NewInjector(plan, pipe.Sim.Binder)
		pipe.Sim.SetClockGate(inj)
		pipe.MemController().SetFault(inj)
		pipe.Sim.OnEndCycle(inj.EndCycle)
	}
	cmds, _, err := workload.Build(testWorkload, pipe, testParams)
	if err != nil {
		t.Fatal(err)
	}
	eng := pipe.EnableCheckpoints(ckptPath, testWorkload, interval)
	restored := false
	if attempt > 1 {
		if snap, rerr := chkpt.ReadFile(ckptPath); rerr == nil && snap.Meta.Workload == testWorkload {
			restored = pipe.RestoreCheckpoint(snap, cmds) == nil
		}
	}
	return &assembly{pipe: pipe, eng: eng, run: func(ctx context.Context) error {
		if restored {
			return pipe.ResumeContext(ctx, testBudget)
		}
		return pipe.RunContext(ctx, cmds, testBudget)
	}}
}

// scenarioRetry: a first attempt whose memory transactions are delayed
// (the MC fault seam) and which a box panic kills (the clock gate), then
// a clean second attempt resuming from the first one's last checkpoint.
func scenarioRetry(t *testing.T, workers int, session bool) []*coretest.Outputs {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	total := runLength(t)
	interval := total / 8
	plan, err := chaos.Parse(fmt.Sprintf("seed=3,mem=delay:0.02:16,panic@cycle=%d", total*3/4))
	if err != nil {
		t.Fatal(err)
	}
	wire := func(attempt int) *assembly {
		if !session {
			return wireRetry(t, workers, plan, attempt, ckpt, interval)
		}
		spec := Spec{
			Config: testConfig(workers), Width: testW, Height: testH,
			Source: Workload(testWorkload, testParams), MaxCycles: testBudget,
			Checkpoint: Checkpoint{Path: ckpt, Interval: interval},
		}
		if attempt == 1 {
			spec.Chaos = plan
		} else {
			spec.RestoreFrom = ckpt
		}
		s, err := StartOrReplay(spec, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		return fromSession(s)
	}
	outs := []*coretest.Outputs{wire(1).record(t, ckpt), wire(2).record(t, ckpt)}
	if !strings.Contains(outs[0].Err, "injected fault") || len(outs[0].Captures) == 0 {
		t.Fatalf("first attempt: error %q after %d checkpoint(s), want an injected panic past a checkpoint", outs[0].Err, len(outs[0].Captures))
	}
	if outs[1].Err != "" {
		t.Fatalf("second attempt did not recover: %s", outs[1].Err)
	}
	return outs
}

// ---- shape 3: internal/jobd — spans + checkpoint, forced capture ----

// jobHooks is what jobd.attempt adds on top of the assembly: a
// supervisory hook that forces a capture at wantAt and stops the run
// once it has landed (a preemption).
func jobHooks(a *assembly, wantAt int64) {
	if wantAt <= 0 {
		return
	}
	req := int64(-1)
	a.pipe.Sim.OnEndCycle(func(cycle int64) {
		switch {
		case cycle < wantAt:
		case req < 0:
			req = cycle
			a.eng.ForceNext()
		case a.eng.LastCycle() >= req:
			a.pipe.Sim.Stop()
		}
	})
}

// wireJob is jobd.attempt at 0c54069: workload first, spans, engine,
// the supervisory hook, and the lenient restore last.
func wireJob(t *testing.T, workers int, ckptPath string, interval, preemptAt int64, resume bool) *assembly {
	t.Helper()
	pipe, err := gpu.New(testConfig(workers), testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := workload.Build(testWorkload, pipe, testParams)
	if err != nil {
		t.Fatal(err)
	}
	col := pipe.EnableSpanTracing(testSpans())
	extra := []chkpt.Snapshotter{col}
	eng := pipe.EnableCheckpoints(ckptPath, testWorkload, interval, extra...)
	a := &assembly{pipe: pipe, col: col, eng: eng}
	jobHooks(a, preemptAt)
	resumed := false
	if resume {
		if snap, rerr := chkpt.ReadFile(ckptPath); rerr == nil && snap.Meta.Workload == testWorkload {
			resumed = pipe.RestoreCheckpoint(snap, cmds, extra...) == nil
		}
	}
	a.run = func(ctx context.Context) error {
		if resumed {
			return pipe.ResumeContext(ctx, testBudget)
		}
		return pipe.RunContext(ctx, cmds, testBudget)
	}
	return a
}

// scenarioJob: a dispatch preempted mid-run by a forced checkpoint,
// then the dispatch that resumes it to the end.
func scenarioJob(t *testing.T, workers int, session bool) []*coretest.Outputs {
	ckpt := filepath.Join(t.TempDir(), "job.ckpt")
	total := runLength(t)
	interval := total / 8
	wire := func(preemptAt int64, resume bool) *assembly {
		if !session {
			return wireJob(t, workers, ckpt, interval, preemptAt, resume)
		}
		spec := Spec{
			Config: testConfig(workers), Width: testW, Height: testH,
			Source: Workload(testWorkload, testParams), MaxCycles: testBudget,
			Spans:      testSpans(),
			Checkpoint: Checkpoint{Path: ckpt, Interval: interval},
		}
		if resume {
			spec.RestoreFrom = ckpt
		}
		s, err := StartOrReplay(spec, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		a := fromSession(s)
		jobHooks(a, preemptAt)
		return a
	}
	first := wire(total/3, false).record(t, ckpt)
	if !strings.Contains(first.Err, core.ErrCanceled.Error()) || first.Cycles >= total {
		t.Fatalf("first dispatch: error %q at cycle %d of %d, want a mid-run stop", first.Err, first.Cycles, total)
	}
	second := wire(0, true).record(t, ckpt)
	if second.Err != "" || second.Cycles != total {
		t.Fatalf("resumed dispatch: error %q, %d cycles, want a clean %d", second.Err, second.Cycles, total)
	}
	return []*coretest.Outputs{first, second}
}

func TestSessionMatchesHandWired(t *testing.T) {
	shapes := []struct {
		name     string
		scenario func(t *testing.T, workers int, session bool) []*coretest.Outputs
	}{
		{"attilasim", scenarioCLI},
		{"experiments", scenarioRetry},
		{"jobd", scenarioJob},
	}
	for _, sh := range shapes {
		// workers=2 carries the ignored Config.Workers (ROADMAP item 7)
		// through each assembler, as an old sweep or checkpoint may.
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(t *testing.T) {
				model := sh.scenario(t, workers, false)
				sess := sh.scenario(t, workers, true)
				for i := range model {
					for _, d := range model[i].Diff(fmt.Sprintf("in step %d from the hand-wired run", i+1), sess[i]) {
						t.Error(d)
					}
				}
			})
		}
	}
}
