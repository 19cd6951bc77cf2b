package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/obsv"
	spantrace "attila/internal/obsv/trace"
	"attila/internal/trace"
)

// profileSample is the profiler period of the traced rep: one timed
// cycle in 64, the repository's own default.
const profileSample = 64

// runLadder fills every per-layer metric that does not depend on the
// workload being run: the emulator/core/mem kernels, and the observer,
// checkpoint, trace-codec and job-server costs measured on fixed small
// inputs (sceneLadder and the 12-job sweep). prior is a sweep this
// process already ran with observation on, reused instead of repeated.
func runLadder(e *env, m *metricSet, prior *sweepRun, sp *spanLog, parent int) error {
	def := sceneLadder.scaled(e)
	_, cmds, err := def.setup(e, nil, 0)
	if err != nil {
		return err
	}
	var total int64
	steps := []struct {
		name string
		run  func() error
	}{
		{"kernels", func() error { return runKernels(e, m, cmds) }},
		{"trace.codec", func() error { return traceCodec(def, cmds, m) }},
		{"overhead.table", func() (err error) { total, err = overheadTable(e, def, m); return err }},
		{"chkpt.costs", func() error { return checkpointCosts(e, def, total, m) }},
		{"jobd.costs", func() error { return jobdCosts(e, m, prior) }},
	}
	for _, st := range steps {
		id := sp.begin(parent, st.name)
		err := st.run()
		sp.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return nil
}

// ladderVariant is the ladder scene with one observer attached.
type ladderVariant struct {
	name    string
	workers int
	attach  func(e *env, p *gpu.Pipeline) (cleanup func())
}

// overheadTable runs the ladder scene bare and once per observer, in
// interleaved rounds, and reports each observer as a percentage over
// bare. The fastest round of each stands for it: the differences are a
// few percent, below one run's noise on a shared host. It returns the
// scene's cycle count.
func overheadTable(e *env, def sceneDef, m *metricSet) (int64, error) {
	variants := []ladderVariant{
		{name: "bare"},
		{name: "obsv.bus_overhead_pct", attach: func(e *env, p *gpu.Pipeline) func() {
			obsv.NewBus(p.Sim, obsv.BusOptions{Frames: func() int64 { return int64(p.CP.Frames()) }})
			return nil
		}},
		{name: "obsv.profiler_overhead_pct", attach: func(e *env, p *gpu.Pipeline) func() {
			prof := obsv.NewProfiler()
			prof.SampleEvery = profileSample
			prof.Attach(p.Sim)
			return nil
		}},
		{name: "obsv.spans64_overhead_pct", attach: func(e *env, p *gpu.Pipeline) func() {
			p.EnableSpanTracing(spantrace.Options{SampleRate: 64})
			return nil
		}},
		{name: "chkpt.every50k_overhead_pct", attach: func(e *env, p *gpu.Pipeline) func() {
			path := filepath.Join(e.out, "ladder.ckpt")
			p.EnableCheckpoints(path, def.generator, 50_000)
			return func() { os.Remove(path) }
		}},
		{name: "core.par2_speedup", workers: 2},
	}
	rounds := 2
	if e.smoke {
		rounds = 1
	}
	best := make([]float64, len(variants))
	var cycles int64
	for r := 0; r < rounds; r++ {
		for i, v := range variants {
			d := def
			d.workers = v.workers
			pipe, cmds, err := d.setup(e, nil, 0)
			if err != nil {
				return 0, err
			}
			var cleanup func()
			if v.attach != nil {
				cleanup = v.attach(e, pipe)
			}
			t0 := time.Now()
			err = pipe.Run(cmds, maxCycles)
			s := time.Since(t0).Seconds()
			if cleanup != nil {
				cleanup()
			}
			if err != nil {
				return 0, fmt.Errorf("ladder scene with %s: %w", v.name, err)
			}
			if cycles == 0 {
				cycles = pipe.Cycles()
			} else if pipe.Cycles() != cycles {
				return 0, fmt.Errorf("ladder scene with %s simulated %d cycles, bare %d: an observer changed the simulation", v.name, pipe.Cycles(), cycles)
			}
			if best[i] == 0 || s < best[i] {
				best[i] = s
			}
		}
	}
	for i, v := range variants[1:] {
		if v.workers > 1 {
			m.set(v.name, best[0]/best[i+1])
		} else {
			m.set(v.name, (best[i+1]/best[0]-1)*100)
		}
	}
	return cycles, nil
}

// checkpointCosts stops the ladder scene at the first quiesced barrier
// past its midpoint and times capture, encode, decode and restore; the
// restored machine must then finish on the same cycle as an
// uninterrupted run.
func checkpointCosts(e *env, def sceneDef, total int64, m *metricSet) error {
	pipe, cmds, err := def.setup(e, nil, 0)
	if err != nil {
		return err
	}
	pipe.Sim.OnEndCycle(func(cycle int64) {
		if cycle >= total/2 && pipe.Quiesced() {
			pipe.Sim.Stop()
		}
	})
	if err := pipe.Run(cmds, maxCycles); !errors.Is(err, core.ErrCanceled) {
		return fmt.Errorf("checkpoint kernel: no quiesced barrier in the second half of the ladder scene (run returned %v)", err)
	}
	t0 := time.Now()
	snap, err := pipe.Checkpoint(def.generator)
	if err != nil {
		return err
	}
	m.set("chkpt.capture_ms", time.Since(t0).Seconds()*1e3)

	var buf bytes.Buffer
	encNs := perOp(1, func() {
		buf.Reset()
		if err := snap.Encode(&buf); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
	})
	mb := float64(buf.Len()) / 1e6
	m.set("chkpt.snapshot_mb", mb)
	m.set("chkpt.encode_mb_per_s", mb/(encNs/1e9))
	var decoded *chkpt.Snapshot
	var decErr error
	decNs := perOp(1, func() { decoded, decErr = chkpt.Read(bytes.NewReader(buf.Bytes())) })
	if decErr != nil {
		return decErr
	}
	m.set("chkpt.decode_mb_per_s", mb/(decNs/1e9))

	fresh, cmds, err := def.setup(e, nil, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := fresh.RestoreCheckpoint(decoded, cmds); err != nil {
		return err
	}
	m.set("chkpt.restore_ms", time.Since(t0).Seconds()*1e3)
	if err := fresh.ResumeContext(context.Background(), maxCycles); err != nil {
		return err
	}
	if fresh.Cycles() != total {
		return fmt.Errorf("restored run ended at cycle %d, uninterrupted run at %d", fresh.Cycles(), total)
	}
	return nil
}

// traceCodec times the trace writer and reader on the ladder scene's
// command stream (textures and buffers inlined).
func traceCodec(def sceneDef, cmds []gpu.Command, m *metricSet) error {
	var buf bytes.Buffer
	var err error
	encNs := perOp(1, func() {
		buf.Reset()
		var w *trace.Writer
		if w, err = trace.NewWriter(&buf, trace.Header{Width: def.w, Height: def.h, Frames: def.frames, Label: def.generator}); err != nil {
			return
		}
		if err = w.WriteCommands(cmds); err == nil {
			err = w.Close()
		}
	})
	if err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	m.set("trace.encode_mb_per_s", mb/(encNs/1e9))
	n := 0
	decNs := perOp(1, func() {
		var r *trace.Reader
		if r, err = trace.NewReader(bytes.NewReader(buf.Bytes())); err != nil {
			return
		}
		var got []gpu.Command
		got, err = r.ReadAll(0, -1)
		n = len(got)
	})
	if err != nil {
		return err
	}
	if n != len(cmds) {
		return fmt.Errorf("trace round trip returned %d commands, wrote %d", n, len(cmds))
	}
	m.set("trace.decode_mb_per_s", mb/(decNs/1e9))
	return nil
}

// jobdCosts compares one observed sweep through the job server with the
// same specs on a bare pool.
func jobdCosts(e *env, m *metricSet, sweep *sweepRun) error {
	if sweep == nil {
		var err error
		if sweep, err = runSweep(e, true, nil, 0); err != nil {
			return err
		}
	}
	pool, err := runBarePool(e, nil, false)
	if err != nil {
		return err
	}
	attempts := 0
	for _, j := range sweep.status.Jobs {
		attempts += j.Attempts
	}
	m.set("jobd.bare_pool_s", pool.wallS)
	m.set("jobd.overhead_pct", (sweep.wallS/pool.wallS-1)*100)
	m.set("jobd.submit_ms_per_job", sweep.submitS*1e3/float64(len(sweep.status.Jobs)))
	m.set("jobd.checkpoints", float64(sweep.ckpts))
	m.set("jobd.attempts", float64(attempts))
	return nil
}
