package jobd

// The server's front: the queue, status, drain and close.
// supervise.go runs a dispatched job; finish.go holds its terminal
// transitions, the sweep summary and the files a job leaves behind.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"attila/internal/chaos"
)

// Options configures a Server. Zero values select the documented
// defaults; every setting applies to every job alike.
type Options struct {
	// OutDir receives per-job stats CSVs (<name>.csv), per-job
	// manifests (<name>-manifest.json), span dumps of traced jobs
	// (<name>-spans.ndjson), black boxes of failed ones
	// (<name>-crash.json), the sweep summary (<sweep>-summary.txt) and
	// per-job checkpoints (checkpoints/<name>.ckpt). Required.
	OutDir string
	// Workers bounds the pool; default half of GOMAXPROCS, minimum 1.
	Workers int
	// Retries is each job's retry budget after a failed attempt;
	// default 2, negative means fail fast. A retry starts at once: runs
	// are deterministic, so waiting changes no outcome.
	Retries int
	// CheckpointInterval is the per-job checkpoint cadence in cycles;
	// default (and any value <= 0) 100k. Checkpoints are what make
	// retries resume instead of replay and what a drain parks jobs
	// with.
	CheckpointInterval int64
	// WatchdogWindow arms each job's no-progress watchdog; default 50M
	// cycles, negative disables.
	WatchdogWindow int64
	// JobTimeout bounds each attempt's wall clock; zero means no
	// limit.
	JobTimeout time.Duration
	// TraceSample, when > 0, turns on request tracing for every job:
	// 1-in-N memory transactions and shader work items carry latency
	// spans, and each done job leaves the sampled spans in
	// <name>-spans.ndjson. Zero disables tracing.
	TraceSample uint64
	// TraceSeed seeds the deterministic span sampler; the same seed,
	// rate, and workload select the same spans on every run.
	TraceSeed uint64
	// Chaos, when non-nil, arms the jobd-level fault plan (worker
	// kills, injected box panics, output-directory yanks).
	Chaos *chaos.ServerPlan
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) norm() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 100_000
	}
	if o.WatchdogWindow == 0 {
		o.WatchdogWindow = 50_000_000
	}
}

// JobStatus is what JobStatus and Jobs report of a job.
type JobStatus struct {
	Name     string `json:"name"`
	Config   string `json:"config"`
	Workload string `json:"workload"`
	record
	Cycle           int64 `json:"cycle"`
	CheckpointCycle int64 `json:"checkpointCycle,omitempty"`
}

// SweepStatus is a sweep's status with every job's.
type SweepStatus struct {
	Name      string      `json:"name"`
	Total     int         `json:"total"`
	Queued    int         `json:"queued"`
	Running   int         `json:"running"`
	Preempted int         `json:"preempted"`
	Done      int         `json:"done"`
	Failed    int         `json:"failed"`
	Canceled  int         `json:"canceled"`
	Finalized bool        `json:"finalized"`
	Summary   string      `json:"summary,omitempty"`
	Jobs      []JobStatus `json:"jobs"`
}

// Server runs one supervised sweep on a worker pool of one host.
type Server struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	sweep    *Sweep // the one sweep admitted; nil until SubmitSweep
	queue    []*Job // FIFO: submission order, requeued jobs at the back
	closed   bool
	yanked   bool
	stopOnce sync.Once

	// runs is the parent of every attempt's context: Close cancels it
	// with errCanceled and a drain that runs out of grace with
	// errDrained.
	runs     context.Context
	stopRuns context.CancelCauseFunc

	draining atomic.Bool
	stopCh   chan struct{} // closed when a drain or close begins
	wg       sync.WaitGroup

	// cycleHook, when set before Start, runs first at every barrier of
	// every attempt, in the clock loop: a test's way to act at an exact
	// cycle of a job.
	cycleHook func(job string, cycle int64)
}

// New builds a server; call Start to spawn the worker pool.
func New(opts Options) *Server {
	opts.norm()
	s := &Server{
		opts:   opts,
		stopCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runs, s.stopRuns = context.WithCancelCause(context.Background())
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Start creates the output tree and spawns the worker pool.
func (s *Server) Start() error {
	if s.opts.OutDir == "" {
		return fmt.Errorf("jobd: Options.OutDir is required")
	}
	if err := os.MkdirAll(filepath.Join(s.opts.OutDir, "checkpoints"), 0o755); err != nil {
		return err
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

// SubmitSweep queues a named set of jobs atomically: either every job
// is admitted or none is. A server runs one sweep: a second submit is
// refused and admits nothing.
//
// The sweep picks up from what an earlier run left in OutDir
// (readJobs): a job whose manifest says it is done, failed or canceled
// keeps that outcome, a preempted one resumes from its checkpoint, and
// the rest run. That is how a restarted one-shot invocation finishes a
// drained or killed sweep.
func (s *Server) SubmitSweep(spec SweepSpec) (*Sweep, error) {
	norm, err := NormalizeSweep(spec)
	if err != nil {
		return nil, err
	}
	jobs, err := s.readJobs(norm)
	if err != nil {
		return nil, err
	}
	finished := !slices.ContainsFunc(jobs, func(j *Job) bool { return !j.State.terminal() })
	s.mu.Lock()
	if s.draining.Load() || s.closed {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.sweep != nil {
		held := s.sweep.Name
		s.mu.Unlock()
		return nil, fmt.Errorf("jobd: sweep %s: the server already runs sweep %s", spec.Name, held)
	}
	sw := &Sweep{Name: spec.Name, jobs: jobs, done: make(chan struct{})}
	s.sweep = sw
	for _, j := range jobs {
		if !j.State.terminal() {
			s.queue = append(s.queue, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if finished { // by an earlier run: only the convergence pass is left
		s.maybeFinalize()
	}
	return sw, nil
}

// nextJobLocked pops the queue head, or returns nil when the queue is
// empty. Caller holds mu.
func (s *Server) nextJobLocked() *Job {
	if len(s.queue) == 0 {
		return nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	return j
}

// jobsLocked is the sweep's jobs in submission order, none before
// SubmitSweep. Caller holds mu.
func (s *Server) jobsLocked() []*Job {
	if s.sweep == nil {
		return nil
	}
	return s.sweep.jobs
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.jobsLocked()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// JobStatus returns one job's status by name.
func (s *Server) JobStatus(name string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.jobsLocked()
	i := slices.IndexFunc(jobs, func(j *Job) bool { return j.Spec.Name == name })
	if i < 0 {
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, name)
	}
	return s.statusLocked(jobs[i]), nil
}

func (s *Server) statusLocked(j *Job) JobStatus {
	return JobStatus{
		Name: j.Spec.Name, Config: j.Spec.Config, Workload: j.Spec.Workload,
		record: j.record, Cycle: j.progress.Load(), CheckpointCycle: j.ckptCycle.Load(),
	}
}

// SweepStatus summarizes a sweep.
func (s *Server) SweepStatus(sw *Sweep) SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SweepStatus{Name: sw.Name, Total: len(sw.jobs), Finalized: sw.finalized, Summary: string(sw.summary)}
	for _, j := range sw.jobs {
		st.Jobs = append(st.Jobs, s.statusLocked(j))
		switch j.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StatePreempted:
			st.Preempted++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	return st
}

// WaitSweep blocks until the sweep is finalized or the context ends.
func (s *Server) WaitSweep(ctx context.Context, sw *Sweep) error {
	select {
	case <-sw.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain gracefully shuts the pool down: submits start failing with
// ErrDraining, every running job checkpoints at its next quiesced
// barrier, stamps its manifest "preempted", and is parked resumable,
// so a server restarted over OutDir resumes it from that checkpoint.
// If ctx expires first, in-flight jobs are hard-stopped and resume
// from their last periodic checkpoint instead of a fresh one.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	queued := len(s.queue)
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cond.Broadcast()
	s.logf("jobd: draining: %d queued", queued)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("jobd: drain grace expired; hard-stopping in-flight jobs")
		s.stopRuns(errDrained)
		<-done
	}
	return nil
}

// Close stops the server. Running jobs are canceled unless Drain ran
// first.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stopRuns(errCanceled)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cond.Broadcast()
	s.wg.Wait()
	return nil
}

// worker pulls jobs off the queue until the server closes or drains.
// It waits only on an empty queue, so a submit signals the cond.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if s.closed || s.draining.Load() {
				s.mu.Unlock()
				return
			}
			if j = s.nextJobLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		j.State = StateRunning
		s.mu.Unlock()
		s.supervise(j)
	}
}

// RunSweep runs the sweep to completion on a local pool and returns its
// final status. A re-invocation over the same output directory picks
// up from the manifests the earlier one left instead of restarting.
func RunSweep(ctx context.Context, opts Options, spec SweepSpec) (SweepStatus, error) {
	s := New(opts)
	if err := s.Start(); err != nil {
		return SweepStatus{}, err
	}
	defer s.Close()
	sw, err := s.SubmitSweep(spec)
	if err != nil {
		return SweepStatus{}, err
	}
	if err := s.WaitSweep(ctx, sw); err != nil {
		// Interrupted (SIGTERM/timeout): drain so every in-flight job
		// checkpoints and its manifest records it preempted.
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(dctx)
		return s.SweepStatus(sw), err
	}
	st := s.SweepStatus(sw)
	if st.Failed > 0 || st.Canceled > 0 {
		return st, fmt.Errorf("jobd: sweep %s: %d failed, %d canceled of %d jobs",
			st.Name, st.Failed, st.Canceled, st.Total)
	}
	return st, nil
}
