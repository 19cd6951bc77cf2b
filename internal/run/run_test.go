package run

// Session-vs-hand-wired equivalence. Each of the three callers of this
// package used to assemble its run by hand; the statement order each
// one had at 0c54069 is kept below as the test-side model (wireCLI,
// wireRetry, wireJob), the way PRs 12-17 kept their parents. A
// scenario drives the model and the session through the same steps and
// every observable must be equal: stats CSV, summary, frame hashes,
// metrics NDJSON (frozen clock), span dump, the run's error, and the
// bytes of every checkpoint file written along the way.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"attila/internal/chaos"
	"attila/internal/chkpt"
	"attila/internal/core"
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
	return &obsv.BusOptions{Window: 10000, Goal: testBudget, Now: func() time.Time { return frozen }}
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

// outputs is everything a finished (or failed) run exports.
type outputs struct {
	err     string
	cycles  int64
	csv     []byte
	summary []byte
	ndjson  []byte
	spans   []byte
	frames  string
	ckpts   []string // "cycle sha256" of the file after each capture
}

// watch records the checkpoint file after every capture, through a hook
// registered after the assembly's own — where a caller's hooks sit.
// keep, when set, is called with the bytes of each capture.
func (a *assembly) watch(t *testing.T, path string, out *outputs, keep func(n int, data []byte)) {
	t.Helper()
	var seen int64
	a.pipe.Sim.OnEndCycle(func(int64) {
		if a.eng == nil || a.eng.Count() == seen {
			return
		}
		seen = a.eng.Count()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("checkpoint %d: %v", seen, err)
			return
		}
		out.ckpts = append(out.ckpts, fmt.Sprintf("%d %x", a.eng.LastCycle(), sha256.Sum256(data)))
		if keep != nil {
			keep(int(seen), data)
		}
	})
}

func (a *assembly) finish(t *testing.T, out *outputs, runErr error) {
	t.Helper()
	if runErr != nil {
		out.err = runErr.Error()
	}
	out.cycles = a.pipe.Cycles()
	var csv, sum bytes.Buffer
	if err := a.pipe.DumpCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := a.pipe.DumpStats(&sum); err != nil {
		t.Fatal(err)
	}
	out.csv, out.summary = csv.Bytes(), sum.Bytes()
	if a.bus != nil {
		var nd bytes.Buffer
		if err := a.bus.WriteNDJSON(&nd); err != nil {
			t.Fatal(err)
		}
		out.ndjson = nd.Bytes()
	}
	if a.col != nil {
		var sp bytes.Buffer
		if err := a.col.WriteSpansNDJSON(&sp); err != nil {
			t.Fatal(err)
		}
		out.spans = sp.Bytes()
	}
	h := sha256.New()
	for _, fr := range a.pipe.Frames() {
		if err := fr.WritePPM(h); err != nil {
			t.Fatal(err)
		}
	}
	out.frames = fmt.Sprintf("%d %x", len(a.pipe.Frames()), h.Sum(nil))
}

func compare(t *testing.T, step string, model, sess outputs) {
	t.Helper()
	if model.err != sess.err {
		t.Errorf("%s: error %q, hand-wired %q", step, sess.err, model.err)
	}
	if model.cycles != sess.cycles {
		t.Errorf("%s: %d cycles, hand-wired %d", step, sess.cycles, model.cycles)
	}
	for _, f := range []struct {
		what string
		m, s []byte
	}{
		{"stats CSV", model.csv, sess.csv},
		{"summary", model.summary, sess.summary},
		{"metrics NDJSON", model.ndjson, sess.ndjson},
		{"span dump", model.spans, sess.spans},
		{"frames", []byte(model.frames), []byte(sess.frames)},
		{"checkpoint files", []byte(strings.Join(model.ckpts, "\n")), []byte(strings.Join(sess.ckpts, "\n"))},
	} {
		if !bytes.Equal(f.m, f.s) {
			t.Errorf("%s: %s differs from the hand-wired run (%d vs %d bytes)", step, f.what, len(f.s), len(f.m))
		}
	}
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
		var err error
		if restored {
			err = pipe.ResumeContext(ctx, testBudget)
		} else {
			err = pipe.RunContext(ctx, cmds, testBudget)
		}
		bus.Flush()
		return err
	}}
}

// scenarioCLI: a full checkpointed run, then a restore from its first
// checkpoint run to the end.
func scenarioCLI(t *testing.T, workers int, session bool) []outputs {
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
	outs := make([]outputs, 2)
	a := wire("")
	a.watch(t, ckpt, &outs[0], func(n int, data []byte) {
		if n == 1 {
			if err := os.WriteFile(mid, data, 0o600); err != nil {
				t.Error(err)
			}
		}
	})
	a.finish(t, &outs[0], a.run(context.Background()))
	if len(outs[0].ckpts) < 2 {
		t.Fatalf("only %d checkpoint(s) in a %d-cycle run at interval %d", len(outs[0].ckpts), outs[0].cycles, interval)
	}
	b := wire(mid)
	b.watch(t, ckpt, &outs[1], nil)
	b.finish(t, &outs[1], b.run(context.Background()))
	return outs
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
func scenarioRetry(t *testing.T, workers int, session bool) []outputs {
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
	outs := make([]outputs, 2)
	for i := range outs {
		a := wire(i + 1)
		a.watch(t, ckpt, &outs[i], nil)
		a.finish(t, &outs[i], a.run(context.Background()))
	}
	if !strings.Contains(outs[0].err, "injected fault") || len(outs[0].ckpts) == 0 {
		t.Fatalf("first attempt: error %q after %d checkpoint(s), want an injected panic past a checkpoint", outs[0].err, len(outs[0].ckpts))
	}
	if outs[1].err != "" {
		t.Fatalf("second attempt did not recover: %s", outs[1].err)
	}
	return outs
}

// ---- shape 3: internal/jobd — spans + checkpoint + gate, forced capture ----

// jobHooks is what jobd.attempt adds on top of the assembly: the fence
// and epoch on the engine, and a supervisory hook that forces a capture
// at wantAt and stops the run once it has landed (a preemption).
func jobHooks(a *assembly, wantAt int64) {
	a.eng.Gate = func() error {
		// Refuse every other write, deterministically: a refused
		// capture must leave no trace in either assembly.
		if a.pipe.Cycles()%2 == 0 {
			return errors.New("fenced")
		}
		return nil
	}
	a.eng.Epoch = func() int64 { return 7 }
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
func scenarioJob(t *testing.T, workers int, session bool) []outputs {
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
	outs := make([]outputs, 2)
	a := wire(total/3, false)
	a.watch(t, ckpt, &outs[0], nil)
	a.finish(t, &outs[0], a.run(context.Background()))
	if !strings.Contains(outs[0].err, core.ErrCanceled.Error()) || outs[0].cycles >= total {
		t.Fatalf("first dispatch: error %q at cycle %d of %d, want a mid-run stop", outs[0].err, outs[0].cycles, total)
	}
	b := wire(0, true)
	b.watch(t, ckpt, &outs[1], nil)
	b.finish(t, &outs[1], b.run(context.Background()))
	if outs[1].err != "" || outs[1].cycles != total {
		t.Fatalf("resumed dispatch: error %q, %d cycles, want a clean %d", outs[1].err, outs[1].cycles, total)
	}
	return outs
}

func TestSessionMatchesHandWired(t *testing.T) {
	shapes := []struct {
		name     string
		scenario func(t *testing.T, workers int, session bool) []outputs
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
					compare(t, fmt.Sprintf("step %d", i+1), model[i], sess[i])
				}
			})
		}
	}
}
