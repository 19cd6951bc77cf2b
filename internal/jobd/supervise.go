package jobd

// Supervision of one dispatched job: its attempts, how each is
// stopped, and what each outcome does next.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"attila/internal/chaos"
	"attila/internal/core"
	"attila/internal/obsv/trace"
	"attila/internal/run"
	"attila/internal/workload"
)

// record is a job's outcome so far: what its status shows and its
// manifest records (jobManifest) for a resubmitted sweep to reload.
type record struct {
	State     State   `json:"state"`
	FailKind  string  `json:"failKind,omitempty"`
	Error     string  `json:"error,omitempty"`
	Attempts  int     `json:"attempts"`
	Resumable bool    `json:"resumable,omitempty"`
	Cycles    int64   `json:"cycles,omitempty"`
	FPS       float64 `json:"fps,omitempty"`
}

// Job is one supervised run. Mutable fields are guarded by the
// server's mutex except the atomics, which the simulation's cycle hook
// writes and JobStatus reads live.
type Job struct {
	Spec JobSpec

	// Guarded by Server.mu.
	record
	csv      []byte
	manifest []byte // a done job's manifest, as written

	// Written by the running simulation.
	progress  atomic.Int64
	ckptCycle atomic.Int64
}

// Why an attempt stopped early: the cause its context is canceled with.
// Close and drain come from the server; the kill is the chaos plan's
// and the timeout the attempt's own.
var (
	errCanceled = errors.New("jobd: job canceled")
	errDrained  = errors.New("jobd: drained")
	errKilled   = errors.New("jobd: chaos: worker killed")
	errTimeout  = errors.New("jobd: attempt timed out")
)

// progressEvery is how many cycles pass between two publications of a
// running job's cycle (a power of two): the cadence at which the clock
// loop itself polls its context.
const progressEvery = 1 << 10

// supervise owns one job until it parks or reaches a terminal state:
// it retries failed attempts at once, parks drained runs, and — via
// the deferred recover — guarantees that nothing a job does can take
// the worker (or the server) down.
func (s *Server) supervise(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(j, StateFailed, FailPanic, fmt.Errorf("jobd: supervisor panic: %v", r))
		}
	}()
	for {
		ctx, stop := context.WithCancelCause(s.runs)
		s.mu.Lock()
		j.State = StateRunning
		j.Attempts++
		attempt, resume := j.Attempts, j.Attempts > 1 || j.Resumable
		s.mu.Unlock()

		runErr, cause, crash, spans := s.attempt(ctx, stop, j, attempt, resume)
		stop(nil)
		switch {
		case runErr == nil:
			s.completeJob(j, spans)
			return
		case cause == errDrained:
			// Not a failure: the run checkpointed (or was hard-stopped
			// onto its last periodic checkpoint).
			s.park(j)
			return
		case cause == errCanceled:
			s.finishJob(j, StateCanceled, "", runErr)
			return
		}
		kind := failKind(runErr, cause)
		if attempt > max(s.opts.Retries, 0) {
			s.failJob(j, kind, runErr, crash)
			return
		}
		s.mu.Lock()
		j.Resumable = true
		s.mu.Unlock()
		s.logf("jobd: job %s attempt %d failed (%s): %v; retrying from checkpoint",
			j.Spec.Name, attempt, kind, runErr)
		select {
		case <-s.stopCh:
			s.park(j) // the server is draining or closing
			return
		default:
		}
	}
}

// park requeues a job that stopped without failing — drained, or
// stopped between two attempts — resumable, with the attempt it was on
// not counted. Its state is StatePreempted, the name its manifest gives a
// parked job.
func (s *Server) park(j *Job) {
	s.mu.Lock()
	j.Attempts--
	j.State = StatePreempted
	j.Resumable = true
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.stampManifest(j, string(StatePreempted), nil)
}

// failKind maps a failed attempt's error and stop cause to a FailKind.
func failKind(err, cause error) string {
	switch {
	case cause == errKilled:
		return FailKilled
	case cause == errTimeout:
		return FailTimeout
	case errors.Is(err, ErrDisk):
		return FailDisk
	case errors.Is(err, core.ErrPanic):
		return FailPanic
	case errors.Is(err, core.ErrDeadlock):
		return FailDeadlock
	default:
		return FailError
	}
}

// attempt runs one try of the job on a fresh machine (run.StartOrReplay)
// under ctx: chaos on the first attempt only, resumed from the job's
// checkpoint when resume is set, with live progress, the chaos kill and
// drain riding the cycle hook. It returns the run's error and the cause
// ctx was canceled with (nil when nothing stopped it), and what the run
// leaves behind: the black box of a failed run, the span dump of a
// finished traced one.
func (s *Server) attempt(ctx context.Context, stop context.CancelCauseFunc, j *Job, n int, resume bool) (runErr, cause error, crash *core.CrashReport, spans []byte) {
	spec := j.Spec
	if d := s.opts.JobTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, d, errTimeout)
		defer cancel()
	}
	defer func() { cause = context.Cause(ctx) }()
	cfg, err := ResolveConfig(spec.Config)
	if err != nil {
		return err, nil, nil, nil
	}
	cfg.WatchdogWindow = max(s.opts.WatchdogWindow, 0)
	ckptPath := s.ckptPath(j)
	rs := run.Spec{
		Config: cfg, Width: spec.Width, Height: spec.Height,
		Source: run.Workload(spec.Workload, workload.Params{
			Width: spec.Width, Height: spec.Height,
			Frames: spec.Frames, Aniso: spec.Aniso, Seed: spec.Seed,
		}),
		MaxCycles:  spec.MaxCycles,
		Spans:      trace.Options{SampleRate: s.opts.TraceSample, Seed: s.opts.TraceSeed},
		Checkpoint: run.Checkpoint{Path: ckptPath, Interval: s.opts.CheckpointInterval},
	}
	if resume {
		// No usable checkpoint (the fault hit before the first capture,
		// the file was destroyed, its spans were sampled at another rate)
		// means a replay from the start, on a machine the refused restore
		// never touched.
		rs.RestoreFrom = ckptPath
	} else {
		// A fresh job must not resume from a stale checkpoint left by an
		// earlier life under the same name.
		os.Remove(ckptPath)
	}
	// Chaos faults arm on the first attempt only, so a recovered job
	// cannot re-hit its injected fault.
	var kill *chaos.KillFault
	if n == 1 {
		rs.Chaos = s.opts.Chaos.PanicPlan(spec.Name)
		kill = s.opts.Chaos.KillFor(spec.Name)
	}
	sess, err := run.StartOrReplay(rs, s.logf)
	if err != nil {
		return err, nil, nil, nil
	}
	pipe, eng, col := sess.Pipe, sess.Engine, sess.Spans
	if sess.RestoredCycle > 0 {
		s.logf("jobd: job %s resuming from checkpoint at cycle %d", spec.Name, sess.RestoredCycle)
	}

	// The cycle hook runs in the clock loop at every barrier: it
	// publishes live progress and stops the run for the chaos kill or a
	// drain — the latter by forcing a checkpoint and stopping once it
	// lands. It stops the machine itself as well as canceling ctx, so
	// the run ends at that very barrier.
	// Progress is for whoever polls the job from outside: the cycle is
	// published every progressEvery cycles and when the run ends, the
	// checkpoint cycle when a capture moved it. Every decision below
	// stays per cycle.
	halt := func(why error) {
		stop(why)
		pipe.Sim.Stop()
	}
	parkReq := int64(-1)
	reached := j.progress.Load() // a run that reaches no barrier leaves it be
	var ckptSeen int64
	pipe.Sim.OnEndCycle(func(cycle int64) {
		if s.cycleHook != nil {
			s.cycleHook(spec.Name, cycle)
		}
		reached = cycle
		if cycle&(progressEvery-1) == 0 {
			j.progress.Store(cycle)
		}
		if lc := eng.LastCycle(); lc != ckptSeen {
			ckptSeen = lc
			j.ckptCycle.Store(lc)
		}
		if kill != nil && cycle >= kill.Cycle {
			kill = nil
			halt(errKilled)
			return
		}
		switch {
		case !s.draining.Load():
		case parkReq < 0:
			parkReq = cycle
			eng.ForceNext()
		case eng.LastCycle() >= parkReq:
			halt(errDrained)
		}
	})

	if err := sess.Run(ctx); err != nil {
		j.progress.Store(reached)
		return err, nil, pipe.Sim.Crash(), nil
	}

	var buf bytes.Buffer
	if err := pipe.DumpCSV(&buf); err != nil {
		return err, nil, nil, nil
	}
	if col != nil {
		var sb bytes.Buffer
		if err := col.WriteSpansNDJSON(&sb); err == nil {
			spans = sb.Bytes()
		}
	}
	s.mu.Lock()
	j.csv = buf.Bytes()
	j.Cycles = pipe.Cycles()
	j.FPS = pipe.FPS()
	j.progress.Store(pipe.Cycles())
	s.mu.Unlock()
	return nil, nil, nil, spans
}
