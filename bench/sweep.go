package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"attila/internal/gpu"
	"attila/internal/jobd"
	"attila/internal/obsv"
	"attila/internal/refrender"
	"attila/internal/workload"
)

// sweepSpec is the jobd-sweep workload: four scene kinds on four
// machines, three seeds each, at the size of one small experiment.
func sweepSpec(e *env) jobd.SweepSpec {
	kinds := []struct{ workload, config string }{
		{"simple", "baseline"},
		{"ut2004", "unified"},
		{"doom3", "casestudy:2:window"},
		{"spinner", "embedded"},
	}
	def := jobd.JobSpec{Width: 128, Height: 96, Frames: 2, Aniso: 8}
	seeds := int64(3)
	if e.smoke {
		def.Width, def.Height, def.Frames = 64, 48, 1
		seeds = 1
	}
	spec := jobd.SweepSpec{Name: "bench", Defaults: def}
	for s := int64(0); s < seeds; s++ {
		for _, k := range kinds {
			spec.Jobs = append(spec.Jobs, jobd.JobSpec{
				Name:     fmt.Sprintf("%s-s%d", k.workload, s),
				Workload: k.workload, Config: k.config, Seed: e.seed + s,
			})
		}
	}
	return spec
}

const sweepWorkers = 2

// sweepRun is one sweep through the job server.
type sweepRun struct {
	setupS  float64 // jobd.New + Start + SubmitSweep
	submitS float64 // SubmitSweep alone
	wallS   float64 // makespan: submit -> WaitSweep returns
	stolenS float64 // steal over the makespan, all CPUs
	mallocs uint64
	status  jobd.SweepStatus
	ckpts   int // distinct checkpoint cycles seen (observed sweeps only)
}

func (r *sweepRun) cycles() int64 {
	var c int64
	for _, j := range r.status.Jobs {
		c += j.Cycles
	}
	return c
}

// startSweep is the sweep's set-up, the region setup_s times for this
// workload: a fresh server, started, with the sweep admitted. The
// caller closes the server.
func startSweep(e *env, dir string, sp *spanLog, parent int) (srv *jobd.Server, sw *jobd.Sweep, submitS float64, err error) {
	id := sp.begin(parent, "jobd.Start")
	srv = jobd.New(jobd.Options{
		OutDir: dir, Workers: sweepWorkers, CheckpointInterval: 50_000, TraceSample: 64,
	})
	err = srv.Start()
	sp.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	id = sp.begin(parent, "jobd.SubmitSweep")
	t0 := time.Now()
	sw, err = srv.SubmitSweep(sweepSpec(e))
	submitS = time.Since(t0).Seconds()
	sp.end(id)
	if err != nil {
		srv.Close()
		return nil, nil, 0, err
	}
	return srv, sw, submitS, nil
}

// runSweep drives one sweep to completion in a fresh temporary output
// directory. With observe set a poller watches job status from outside
// (the server keeps no timestamps) to count checkpoints and, when sp is
// non-nil, to rebuild one span per job.
func runSweep(e *env, observe bool, sp *spanLog, parent int) (*sweepRun, error) {
	dir, err := os.MkdirTemp(e.out, "jobd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &sweepRun{}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stolen := stolenSeconds()
	t0 := time.Now()
	srv, sw, submitS, err := startSweep(e, dir, sp, parent)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	tAdmitted := time.Now()
	r.setupS, r.submitS = tAdmitted.Sub(t0).Seconds(), submitS
	var stopPoll func()
	if observe {
		stopPoll = pollJobs(srv, r, sp, parent)
	}
	id := sp.begin(parent, "jobd.WaitSweep")
	err = srv.WaitSweep(context.Background(), sw)
	sp.end(id)
	r.wallS = submitS + time.Since(tAdmitted).Seconds()
	r.stolenS = stolenSeconds() - stolen
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	if stopPoll != nil {
		stopPoll()
	}
	if err != nil {
		return nil, err
	}
	r.status = srv.SweepStatus(sw)
	return r, nil
}

// pollJobs samples job status every 5 ms until stopped: far finer than
// a job (hundreds of ms) or a checkpoint interval (~100 ms of host
// time), and cheap next to either.
func pollJobs(srv *jobd.Server, r *sweepRun, sp *spanLog, parent int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		started := map[string]time.Time{}
		closed := map[string]bool{}
		lastCkpt := map[string]int64{}
		sample := func() {
			now := time.Now()
			for _, j := range srv.Jobs() {
				if j.CheckpointCycle > lastCkpt[j.Name] {
					lastCkpt[j.Name] = j.CheckpointCycle
					r.ckpts++
				}
				if _, ok := started[j.Name]; !ok && j.State != jobd.StateQueued {
					started[j.Name] = now
				}
				if !closed[j.Name] && (j.State == jobd.StateDone || j.State == jobd.StateFailed) {
					closed[j.Name] = true
					sp.add(parent, "job "+j.Name, started[j.Name], now)
				}
			}
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// poolRun is the reference the sweep is judged against: the same
// normalised specs on a bare pool of goroutines, gpu.New + Run only.
type poolRun struct {
	wallS    float64
	cycles   map[string]int64
	commands int
	sims     []*simRun
	frames   map[string][]*gpu.Frame
}

// runBarePool runs the sweep's specs on sweepWorkers goroutines. A
// non-nil prof is attached to every pipeline (it aggregates by box
// name); keepFrames retains DAC frames for the correctness gate.
func runBarePool(e *env, prof *obsv.Profiler, keepFrames bool) (*poolRun, error) {
	specs, err := jobd.NormalizeSweep(sweepSpec(e))
	if err != nil {
		return nil, err
	}
	out := &poolRun{cycles: map[string]int64{}, frames: map[string][]*gpu.Frame{}}
	var mu sync.Mutex
	t0 := time.Now()
	err = eachSpec(specs, func(js jobd.JobSpec) error {
		pipe, cmds, err := buildJob(js)
		if err != nil {
			return err
		}
		if prof != nil {
			prof.Attach(pipe.Sim)
		}
		t1 := time.Now()
		if err := pipe.Run(cmds, js.MaxCycles); err != nil {
			return fmt.Errorf("job %s: %w", js.Name, err)
		}
		wallS := time.Since(t1).Seconds()
		mu.Lock()
		defer mu.Unlock()
		out.cycles[js.Name] = pipe.Cycles()
		out.commands += len(cmds)
		if prof != nil {
			out.sims = append(out.sims, newSimRun(pipe, wallS))
		}
		if keepFrames {
			out.frames[js.Name] = pipe.Frames()
		}
		return nil
	})
	out.wallS = time.Since(t0).Seconds()
	return out, err
}

// runReferencePool renders every spec with the functional reference
// renderer on the same pool and returns the frames and the makespan.
func runReferencePool(e *env) (map[string][]*gpu.Frame, float64, error) {
	specs, err := jobd.NormalizeSweep(sweepSpec(e))
	if err != nil {
		return nil, 0, err
	}
	frames := map[string][]*gpu.Frame{}
	var mu sync.Mutex
	t0 := time.Now()
	err = eachSpec(specs, func(js jobd.JobSpec) error {
		pipe, cmds, err := buildJob(js)
		if err != nil {
			return err
		}
		ref := refrender.New(pipe.Cfg.GPUMemBytes, js.Width, js.Height)
		if err := ref.Execute(cmds); err != nil {
			return fmt.Errorf("reference %s: %w", js.Name, err)
		}
		mu.Lock()
		frames[js.Name] = ref.Frames()
		mu.Unlock()
		return nil
	})
	return frames, time.Since(t0).Seconds(), err
}

func buildJob(js jobd.JobSpec) (*gpu.Pipeline, []gpu.Command, error) {
	cfg, err := jobd.ResolveConfig(js.Config)
	if err != nil {
		return nil, nil, err
	}
	pipe, err := gpu.New(cfg, js.Width, js.Height)
	if err != nil {
		return nil, nil, err
	}
	cmds, _, err := workload.Build(js.Workload, pipe, workload.Params{
		Width: js.Width, Height: js.Height, Frames: js.Frames, Aniso: js.Aniso, Seed: js.Seed,
	})
	return pipe, cmds, err
}

// eachSpec runs fn over specs on sweepWorkers goroutines and returns
// the first error.
func eachSpec(specs []jobd.JobSpec, fn func(jobd.JobSpec) error) error {
	ch := make(chan jobd.JobSpec)
	errs := make(chan error, sweepWorkers) // one slot per worker: each reports at most once
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for js := range ch {
				if first == nil {
					first = fn(js)
				}
			}
			if first != nil {
				errs <- first
			}
		}()
	}
	for _, js := range specs {
		ch <- js
	}
	close(ch)
	wg.Wait()
	close(errs)
	return <-errs
}

type sweepWorkload struct{ e *env }

func newSweepWorkload(e *env) runner { return &sweepWorkload{e: e} }

func (s *sweepWorkload) ops(reps []repResult) int {
	n := 0
	for _, r := range reps {
		n += len(r.sweep.status.Jobs)
	}
	return n
}

// setupOnly admits the sweep and closes the server at once; the jobs
// the workers had already picked up are cancelled outside the timing.
func (s *sweepWorkload) setupOnly() (float64, error) {
	dir, err := os.MkdirTemp(s.e.out, "jobd-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	srv, _, _, err := startSweep(s.e, dir, nil, 0)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	return d, srv.Close()
}

func (s *sweepWorkload) rep(sp *spanLog, parent int) (repResult, error) {
	run, err := runSweep(s.e, sp != nil, sp, parent)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{setupS: run.setupS, wallS: run.wallS, stolenS: run.stolenS, cycles: run.cycles(), mallocs: run.mallocs, sweep: run}
	if sp != nil {
		// The host-time shares of a sweep come from the same specs on
		// the bare pool with the profiler attached: the server owns its
		// pipelines, so nothing can be attached to them from outside.
		id := sp.begin(parent, "barepool.profiled")
		r.prof = obsv.NewProfiler()
		r.prof.SampleEvery = profileSample
		pool, err := runBarePool(s.e, r.prof, true)
		sp.end(id)
		if err != nil {
			return r, err
		}
		r.pool = pool
		r.sims = pool.sims
		r.commands = pool.commands
		r.buildMs = run.submitS * 1e3 // the sweep's "scene build" is its admission
	}
	return r, nil
}

// verify: an op is one job. Every job of every rep must be done, on
// the cycle the bare pool ends on, and the bare pool's frames must
// match the reference renderer within the budget.
func (s *sweepWorkload) verify(reps []repResult, sp *spanLog, parent int) (verdict, error) {
	id := sp.begin(parent, "refrender.Execute")
	refFrames, refS, err := runReferencePool(s.e)
	sp.end(id)
	v := verdict{refS: refS}
	if err != nil {
		return v, err
	}
	pool := reps[len(reps)-1].pool // the traced rep already ran one
	if pool == nil {
		id = sp.begin(parent, "barepool.reference")
		pool, err = runBarePool(s.e, nil, true)
		sp.end(id)
		if err != nil {
			return v, err
		}
	}
	id = sp.begin(parent, "frame.diff")
	defer sp.end(id)
	for name, want := range refFrames {
		px, ok := diffPixels(pool.frames[name], want)
		v.diffPixels += px
		if !ok {
			return v, fmt.Errorf("bare-pool job %s: %d pixels differ from the reference renderer (budget %d per frame)", name, px, refDiffBudget)
		}
	}
	for i, r := range reps {
		for _, j := range r.sweep.status.Jobs {
			switch {
			case j.State != jobd.StateDone:
				logf("FAIL rep %d: job %s is %s (%s)", i, j.Name, j.State, j.Error)
				v.failed++
			case j.Cycles != pool.cycles[j.Name]:
				logf("FAIL rep %d: job %s simulated %d cycles, bare pool %d", i, j.Name, j.Cycles, pool.cycles[j.Name])
				v.failed++
			}
		}
	}
	return v, nil
}
