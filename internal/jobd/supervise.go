package jobd

// Supervision of one dispatched job: its attempts, how each is
// stopped, and what each outcome does next.

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"attila/internal/chaos"
	"attila/internal/core"
	"attila/internal/obsv/trace"
	"attila/internal/run"
	"attila/internal/workload"
)

// record is a job's outcome so far: what the API shows, the state file
// keeps and a restarted server reloads.
type record struct {
	State       State   `json:"state"`
	FailKind    string  `json:"failKind,omitempty"`
	Error       string  `json:"error,omitempty"`
	Attempts    int     `json:"attempts"`
	Preemptions int     `json:"preemptions,omitempty"`
	Resumable   bool    `json:"resumable,omitempty"`
	Cycles      int64   `json:"cycles,omitempty"`
	FPS         float64 `json:"fps,omitempty"`
}

// Job is one supervised run. Mutable fields are guarded by the
// server's mutex except the atomics, which the simulation's cycle hook
// writes and the HTTP layer reads live.
type Job struct {
	ID   int64
	Spec JobSpec

	// Guarded by Server.mu.
	record
	canceled  bool                    // CancelJob ran; checked before each attempt
	stop      context.CancelCauseFunc // cancels the latest attempt's context
	sweep     *Sweep
	crash     *core.CrashReport
	csv       []byte
	spanHists map[string]trace.Histogram // per-client total-latency histograms at completion
	spanDump  []byte                     // retained sampled spans, NDJSON
	spanTotal uint64                     // sampled spans terminated by the job

	// Written by the running simulation.
	progress  atomic.Int64
	ckptCycle atomic.Int64
}

func (j *Job) sweepName() string {
	if j.sweep == nil {
		return ""
	}
	return j.sweep.Name
}

// Why an attempt stopped early: the cause its context is canceled with.
// Cancel, close, drain and preemption come from the server; the kill is
// the chaos plan's and the timeout the attempt's own.
var (
	errCanceled  = errors.New("jobd: job canceled")
	errPreempted = errors.New("jobd: preempted")
	errDrained   = errors.New("jobd: drained")
	errKilled    = errors.New("jobd: chaos: worker killed")
	errTimeout   = errors.New("jobd: attempt timed out")
)

// progressEvery is how many cycles pass between two publications of a
// running job's cycle (a power of two): the cadence at which the clock
// loop itself polls its context.
const progressEvery = 1 << 10

// inherit is the one override rule of a per-job setting (retries,
// timeout, watchdog): 0 takes the server's value, and a negative value,
// the job's or the server's, turns the setting off.
func inherit[T ~int | ~int64](job, server T) T { return max(cmp.Or(job, server), 0) }

// supervise owns one job until it parks or reaches a terminal state:
// it retries failed attempts with capped jittered backoff, requeues
// preempted/drained runs, and — via the deferred recover — guarantees
// that nothing a job does can take the worker (or the server) down.
func (s *Server) supervise(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(j, StateFailed, FailPanic, fmt.Errorf("jobd: supervisor panic: %v", r))
		}
	}()
	seed := int64(1)
	if s.opts.Chaos != nil {
		seed = s.opts.Chaos.Seed
	}
	rng := rand.New(rand.NewSource(seed + j.ID))
	for {
		s.mu.Lock()
		if j.canceled {
			s.mu.Unlock()
			s.finishJob(j, StateCanceled, "", nil)
			return
		}
		ctx, stop := context.WithCancelCause(s.runs)
		j.stop = stop
		j.State = StateRunning
		j.Attempts++
		attempt, resume := j.Attempts, j.Attempts > 1 || j.Resumable
		s.mu.Unlock()

		runErr, cause := s.attempt(ctx, stop, j, attempt, resume)
		stop(nil)
		switch {
		case runErr == nil:
			s.completeJob(j)
			return
		case cause == errPreempted || cause == errDrained:
			// Not a failure: the run checkpointed (or was hard-stopped
			// onto its last periodic checkpoint).
			s.park(j, cause == errPreempted)
			return
		case cause == errCanceled:
			s.finishJob(j, StateCanceled, "", runErr)
			return
		}
		kind := failKind(runErr, cause)
		if attempt > inherit(j.Spec.Retries, s.opts.Retries) {
			s.finishJob(j, StateFailed, kind, runErr)
			return
		}
		s.mu.Lock()
		j.Resumable = true
		s.mu.Unlock()
		s.logf("jobd: job %s attempt %d failed (%s): %v; retrying from checkpoint",
			j.Spec.Name, attempt, kind, runErr)
		if d := run.RetryDelay(s.opts.RetryBackoff, s.opts.RetryBackoffMax, attempt, rng); d > 0 {
			select {
			case <-time.After(d):
			case <-s.stopCh:
				s.park(j, false) // the server is draining or closing
				return
			}
		}
	}
}

// park requeues a job that stopped without failing — preempted, drained
// or interrupted mid-backoff — resumable, with the attempt it was on
// not counted.
func (s *Server) park(j *Job, preempted bool) {
	s.mu.Lock()
	j.Attempts--
	if preempted {
		j.Preemptions++
	}
	j.State = StatePreempted
	j.Resumable = true
	s.pushQueueLocked(j)
	s.mu.Unlock()
	s.stampManifest(j, string(StatePreempted), nil)
	s.saveState()
	if preempted {
		s.logf("jobd: job %s preempted at cycle %d (checkpoint %d)",
			j.Spec.Name, j.progress.Load(), j.ckptCycle.Load())
		s.cond.Signal()
	}
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
// checkpoint when resume is set, with live progress, the chaos kill,
// preemption and drain riding the cycle hook. It returns the run's error
// and the cause ctx was canceled with (nil when nothing stopped it).
func (s *Server) attempt(ctx context.Context, stop context.CancelCauseFunc, j *Job, n int, resume bool) (runErr, cause error) {
	spec := j.Spec
	if d := inherit(time.Duration(spec.TimeoutSec*float64(time.Second)), s.opts.JobTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, d, errTimeout)
		defer cancel()
	}
	defer func() { cause = context.Cause(ctx) }()
	cfg, err := ResolveConfig(spec.Config)
	if err != nil {
		return err, nil
	}
	cfg.WatchdogWindow = inherit(spec.WatchdogWindow, s.opts.WatchdogWindow)
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
		return err, nil
	}
	pipe, eng, col := sess.Pipe, sess.Engine, sess.Spans
	if sess.RestoredCycle > 0 {
		s.logf("jobd: job %s resuming from checkpoint at cycle %d", spec.Name, sess.RestoredCycle)
	}

	// The cycle hook runs in the clock loop at every barrier: it
	// publishes live progress and stops the run for the chaos kill, a
	// fairness preemption or a drain — the latter two by forcing a
	// checkpoint and stopping once it lands. It stops the machine itself
	// as well as canceling ctx, so the run ends at that very barrier.
	// Progress is for whoever polls the job from outside: the cycle is
	// published every progressEvery cycles and when the run ends, the
	// checkpoint cycle when a capture moved it. Every decision below
	// stays per cycle.
	halt := func(why error) {
		stop(why)
		pipe.Sim.Stop()
	}
	dispatchStart, parkReq := int64(-1), int64(-1)
	reached := j.progress.Load() // a run that reaches no barrier leaves it be
	var ckptSeen int64
	pipe.Sim.OnEndCycle(func(cycle int64) {
		reached = cycle
		if cycle&(progressEvery-1) == 0 {
			j.progress.Store(cycle)
		}
		if lc := eng.LastCycle(); lc != ckptSeen {
			ckptSeen = lc
			j.ckptCycle.Store(lc)
		}
		if dispatchStart < 0 {
			dispatchStart = cycle
		}
		if kill != nil && cycle >= kill.Cycle {
			kill = nil
			halt(errKilled)
			return
		}
		var why error
		if s.draining.Load() {
			why = errDrained
		} else if q := s.opts.PreemptCycles; q > 0 && cycle-dispatchStart >= q && s.queueLen.Load() > 0 {
			why = errPreempted
		}
		switch {
		case why == nil:
		case parkReq < 0:
			parkReq = cycle
			eng.ForceNext()
		case eng.LastCycle() >= parkReq:
			halt(why)
		}
	})

	if err := sess.Run(ctx); err != nil {
		j.progress.Store(reached)
		s.mu.Lock()
		j.crash = pipe.Sim.Crash()
		s.mu.Unlock()
		return err, nil
	}

	var buf bytes.Buffer
	if err := pipe.DumpCSV(&buf); err != nil {
		return err, nil
	}
	var spanHists map[string]trace.Histogram
	var spanDump []byte
	var spanTotal uint64
	if col != nil {
		spanHists = col.TotalHists(nil)
		spanTotal = col.Snapshot().Spans
		var sb bytes.Buffer
		if err := col.WriteSpansNDJSON(&sb); err == nil {
			spanDump = sb.Bytes()
		}
	}
	s.mu.Lock()
	j.csv = buf.Bytes()
	j.Cycles = pipe.Cycles()
	j.FPS = pipe.FPS()
	j.crash = nil
	j.progress.Store(pipe.Cycles())
	j.spanHists = spanHists
	j.spanDump = spanDump
	j.spanTotal = spanTotal
	s.mu.Unlock()
	return nil, nil
}
