package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"attila/internal/chaos"
	"attila/internal/core"
	"attila/internal/fsatomic"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/run"
	"attila/internal/workload"
)

// Options configures a Server. Zero values select the documented
// defaults.
type Options struct {
	// OutDir receives per-job stats CSVs (<name>.csv), per-job
	// manifests (<name>-manifest.json), sweep summaries
	// (<sweep>-summary.txt) and, by default, the state file and
	// checkpoint directory. Required.
	OutDir string
	// CkptDir holds per-job checkpoint files; default OutDir/checkpoints.
	CkptDir string
	// StatePath is the durable queue/state file that makes a drained or
	// killed server resumable; default OutDir/jobd-state.json.
	StatePath string
	// Workers bounds the pool; default half of GOMAXPROCS, minimum 1.
	Workers int
	// QueueLimit is the admission-control bound on queued jobs: submits
	// past it fail with ErrQueueFull (HTTP 429 + Retry-After). Default
	// 256; negative disables the limit.
	QueueLimit int
	// Retries is the default per-job retry budget after a failed
	// attempt; default 2, negative means fail fast. JobSpec.Retries
	// overrides per job.
	Retries int
	// RetryBackoff is the base delay before the first retry, doubling
	// per attempt up to RetryBackoffMax with seeded jitter
	// (run.RetryDelay). Zero retries immediately.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// CheckpointInterval is the per-job checkpoint cadence in cycles;
	// default 100k. Checkpoints are what make retries resume instead of
	// replay and what preemption/drain park jobs with.
	CheckpointInterval int64
	// PreemptCycles, when > 0, is the fairness quantum: a job that has
	// run this many cycles in one dispatch while other jobs wait is
	// checkpointed at the next quiesced barrier and requeued.
	PreemptCycles int64
	// WatchdogWindow arms each job's no-progress watchdog; default 50M
	// cycles, negative disables. JobSpec.WatchdogWindow overrides.
	WatchdogWindow int64
	// JobTimeout bounds each attempt's wall clock; zero means no
	// limit. JobSpec.TimeoutSec overrides.
	JobTimeout time.Duration
	// TraceSample, when > 0, turns on request tracing for every job:
	// 1-in-N memory transactions and shader work items carry latency
	// spans, folded into per-job histograms that /fleet/metrics merges
	// across jobs. Zero disables tracing.
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
	if o.CkptDir == "" {
		o.CkptDir = filepath.Join(o.OutDir, "checkpoints")
	}
	if o.StatePath == "" {
		o.StatePath = filepath.Join(o.OutDir, "jobd-state.json")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 256
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

// Stop causes — why a running simulation was asked to stop.
const (
	causeNone int32 = iota
	causeCancel
	causePreempt
	causeDrain
	causeKilled
	causeTimeout
)

// progressEvery is how many cycles pass between two publications of a
// running job's cycle (a power of two): the cadence at which the clock
// loop itself polls its context.
const progressEvery = 1 << 10

// Job is one supervised run. Mutable fields are guarded by the
// server's mutex except the atomics, which the simulation's cycle hook
// writes and the HTTP layer reads live.
type Job struct {
	ID   int64
	Spec JobSpec

	// Guarded by Server.mu.
	state       State
	failKind    string
	errMsg      string
	attempts    int
	preemptions int
	resumable   bool
	crash       *core.CrashReport
	csv         []byte
	cycles      int64
	fps         float64
	stopFn      func()
	sweep       *Sweep
	spanHists   map[string]trace.Histogram // per-client total-latency histograms at completion
	spanDump    []byte                     // retained sampled spans, NDJSON
	spanTotal   uint64                     // sampled spans terminated by the job

	// Written by the running simulation / cancel path.
	progress  atomic.Int64
	ckptCycle atomic.Int64
	cause     atomic.Int32
	cancelReq atomic.Bool
}

// takeCause consumes the stop cause recorded by whoever stopped the
// run.
func (j *Job) takeCause() int32 { return j.cause.Swap(causeNone) }

func (j *Job) maxRetries(o Options) int {
	r := j.Spec.Retries
	if r == 0 {
		r = o.Retries
	}
	if r < 0 {
		return 0
	}
	return r
}

func (j *Job) timeout(o Options) time.Duration {
	if s := j.Spec.TimeoutSec; s > 0 {
		return time.Duration(s * float64(time.Second))
	} else if s < 0 {
		return 0
	}
	return o.JobTimeout
}

// Sweep is a named set of jobs finalized together: when the last job
// reaches a terminal state the server converges the on-disk outputs
// (rewriting any stats CSV a fault destroyed) and writes the sweep
// summary.
type Sweep struct {
	ID   int64
	Name string

	// Guarded by Server.mu.
	jobs       []*Job
	finalizing bool
	finalized  bool
	summary    []byte

	done chan struct{} // closed once finalized
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID              int64   `json:"id"`
	Name            string  `json:"name"`
	Config          string  `json:"config"`
	Workload        string  `json:"workload"`
	State           State   `json:"state"`
	FailKind        string  `json:"failKind,omitempty"`
	Error           string  `json:"error,omitempty"`
	Attempts        int     `json:"attempts"`
	Preemptions     int     `json:"preemptions,omitempty"`
	Resumable       bool    `json:"resumable,omitempty"`
	Cycle           int64   `json:"cycle"`
	CheckpointCycle int64   `json:"checkpointCycle,omitempty"`
	Cycles          int64   `json:"cycles,omitempty"`
	FPS             float64 `json:"fps,omitempty"`
	Sweep           string  `json:"sweep,omitempty"`
}

// SweepStatus is the API view of a sweep.
type SweepStatus struct {
	ID        int64       `json:"id"`
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

// Server is the supervised sweep job server.
type Server struct {
	opts Options

	// saveMu serializes saveState. It is taken before mu and held across
	// the snapshot and the write, so the state file only moves forward:
	// an older snapshot can never be renamed over a newer one.
	saveMu sync.Mutex

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	byID     map[int64]*Job
	order    []*Job
	queue    []*Job // FIFO: submission order, requeued jobs at the back
	sweeps   []*Sweep
	nextID   int64
	closed   bool
	yanked   bool
	stopOnce sync.Once

	draining atomic.Bool
	queueLen atomic.Int64
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New builds a server; call Start to load persisted state and spawn
// the worker pool.
func New(opts Options) *Server {
	opts.norm()
	s := &Server{
		opts:   opts,
		jobs:   make(map[string]*Job),
		byID:   make(map[int64]*Job),
		stopCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers reports the worker pool's size after defaulting.
func (s *Server) Workers() int { return s.opts.Workers }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Start creates the output tree, loads the state file from a previous
// life (requeuing interrupted jobs as resumable), and spawns the
// worker pool.
func (s *Server) Start() error {
	if s.opts.OutDir == "" {
		return fmt.Errorf("jobd: Options.OutDir is required")
	}
	if err := os.MkdirAll(s.opts.OutDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(s.opts.CkptDir, 0o755); err != nil {
		return err
	}
	if err := s.loadState(); err != nil {
		s.logf("jobd: state file unusable, starting fresh: %v", err)
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Sweeps that were already complete when the previous life ended
	// still need their convergence pass (the summary write may have
	// been interrupted).
	s.mu.Lock()
	sweeps := append([]*Sweep(nil), s.sweeps...)
	s.mu.Unlock()
	for _, sw := range sweeps {
		s.maybeFinalize(sw)
	}
	return nil
}

// SubmitJob queues one job.
func (s *Server) SubmitJob(spec JobSpec) (*Job, error) {
	norm, err := spec.normalize(JobSpec{})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	j, err := s.submitLocked(norm, nil)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.cond.Signal()
	s.saveState()
	return j, nil
}

// SubmitSweep queues a named set of jobs atomically: either every job
// is admitted or none is. Resubmitting a sweep whose name and job
// names match an existing one returns the existing sweep — that is how
// a restarted one-shot invocation attaches to the persisted state
// instead of colliding with it.
func (s *Server) SubmitSweep(spec SweepSpec) (*Sweep, error) {
	norm, err := NormalizeSweep(spec)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(norm))
	for _, n := range norm {
		seen[n.Name] = true
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.sweeps {
		if sw.Name != spec.Name {
			continue
		}
		// Continuation: same sweep resubmitted after a restart.
		for _, j := range sw.jobs {
			if !seen[j.Spec.Name] {
				return nil, fmt.Errorf("%w: sweep %s exists with different jobs", ErrDuplicate, spec.Name)
			}
		}
		return sw, nil
	}
	if s.draining.Load() || s.closed {
		return nil, ErrDraining
	}
	if lim := s.opts.QueueLimit; lim > 0 && len(s.queue)+len(norm) > lim {
		return nil, ErrQueueFull
	}
	s.nextID++
	sw := &Sweep{ID: s.nextID, Name: spec.Name, done: make(chan struct{})}
	for _, js := range norm {
		j, err := s.submitLocked(js, sw)
		if err != nil {
			// Roll back the jobs admitted so far.
			for _, added := range sw.jobs {
				delete(s.jobs, added.Spec.Name)
				delete(s.byID, added.ID)
				s.removeQueuedLocked(added)
				s.order = s.order[:len(s.order)-1]
			}
			return nil, err
		}
		sw.jobs = append(sw.jobs, j)
	}
	s.sweeps = append(s.sweeps, sw)
	s.cond.Broadcast()
	go s.saveState()
	return sw, nil
}

// submitLocked admits one normalized job spec. A job outside a sweep
// passes admission control here; SubmitSweep admits its jobs as a
// unit. Caller holds mu.
func (s *Server) submitLocked(spec JobSpec, sw *Sweep) (*Job, error) {
	if sw == nil {
		if s.draining.Load() || s.closed {
			return nil, ErrDraining
		}
		if lim := s.opts.QueueLimit; lim > 0 && len(s.queue) >= lim {
			return nil, ErrQueueFull
		}
	}
	if _, dup := s.jobs[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, spec.Name)
	}
	s.nextID++
	j := &Job{ID: s.nextID, Spec: spec, state: StateQueued, sweep: sw}
	s.jobs[spec.Name] = j
	s.byID[j.ID] = j
	s.order = append(s.order, j)
	s.pushQueueLocked(j)
	return j, nil
}

func (s *Server) pushQueueLocked(j *Job) {
	s.queue = append(s.queue, j)
	s.queueLen.Store(int64(len(s.queue)))
}

// nextJobLocked pops the queue head, or returns nil when the queue is
// empty. Caller holds mu.
func (s *Server) nextJobLocked() *Job {
	if len(s.queue) == 0 {
		return nil
	}
	j := s.queue[0]
	s.removeQueuedLocked(j)
	return j
}

func (s *Server) removeQueuedLocked(j *Job) bool {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.queueLen.Store(int64(len(s.queue)))
			return true
		}
	}
	return false
}

// CancelJob cancels a job by name or numeric ID: a queued job is
// removed, a running one is stopped at the next cycle boundary.
func (s *Server) CancelJob(ref string) error {
	s.mu.Lock()
	j := s.jobByRefLocked(ref)
	if j == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: job %q", ErrNotFound, ref)
	}
	if j.state.terminal() {
		s.mu.Unlock()
		return nil
	}
	j.cancelReq.Store(true)
	j.cause.CompareAndSwap(causeNone, causeCancel)
	if s.removeQueuedLocked(j) {
		j.state = StateCanceled
		sw := j.sweep
		s.mu.Unlock()
		s.stampManifest(j, string(StateCanceled), nil)
		if sw != nil {
			s.maybeFinalize(sw)
		}
		s.saveState()
		return nil
	}
	if j.stopFn != nil {
		j.stopFn()
	}
	s.mu.Unlock()
	return nil
}

// jobByRefLocked resolves a ref as a job name first, then as an ID, but
// only when the whole ref is a number: "3abc" names no job.
func (s *Server) jobByRefLocked(ref string) *Job {
	if j, ok := s.jobs[ref]; ok {
		return j
	}
	if id, err := strconv.ParseInt(ref, 10, 64); err == nil {
		return s.byID[id]
	}
	return nil
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// JobStatus returns one job's status by name or ID.
func (s *Server) JobStatus(ref string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobByRefLocked(ref)
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, ref)
	}
	return s.statusLocked(j), nil
}

// JobCrash returns the black-box report of a job's most recent failed
// attempt, or nil.
func (s *Server) JobCrash(ref string) (*core.CrashReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobByRefLocked(ref)
	if j == nil {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, ref)
	}
	return j.crash, nil
}

func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID: j.ID, Name: j.Spec.Name,
		Config: j.Spec.Config, Workload: j.Spec.Workload,
		State: j.state, FailKind: j.failKind, Error: j.errMsg,
		Attempts: j.attempts, Preemptions: j.preemptions,
		Resumable: j.resumable,
		Cycle:     j.progress.Load(), CheckpointCycle: j.ckptCycle.Load(),
		Cycles: j.cycles, FPS: j.fps,
	}
	if j.sweep != nil {
		st.Sweep = j.sweep.Name
	}
	return st
}

// JobSpans returns the sampled-span NDJSON dump retained by a
// completed job, or nil when the job has not finished or ran with
// tracing off.
func (s *Server) JobSpans(ref string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobByRefLocked(ref)
	if j == nil {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, ref)
	}
	return j.spanDump, nil
}

// Draining reports whether the server has begun draining; the /readyz
// probe answers 503 while it is true.
func (s *Server) Draining() bool { return s.draining.Load() }

// FleetLatency is one client's latency merged across jobs.
type FleetLatency struct {
	Count uint64          `json:"count"`
	P50   int64           `json:"p50"`
	P90   int64           `json:"p90"`
	P99   int64           `json:"p99"`
	Mean  float64         `json:"mean"`
	Hist  trace.Histogram `json:"hist"`
}

// FleetMetrics is the server's latency view: per-client histograms
// merged across every completed job that ran with tracing on.
type FleetMetrics struct {
	SampleRate uint64                   `json:"sampleRate,omitempty"`
	Jobs       int                      `json:"jobs"`  // completed jobs contributing
	Spans      uint64                   `json:"spans"` // sampled spans across those jobs
	Clients    map[string]*FleetLatency `json:"clients,omitempty"`
}

// FleetMetrics merges the per-job span histograms into one view.
// Histogram merging is bucket addition, so the result is independent of
// job completion order.
func (s *Server) FleetMetrics() FleetMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm := FleetMetrics{SampleRate: s.opts.TraceSample}
	merged := make(map[string]trace.Histogram)
	for _, j := range s.order {
		if j.spanHists == nil {
			continue
		}
		fm.Jobs++
		fm.Spans += j.spanTotal
		for name, h := range j.spanHists {
			m := merged[name]
			m.Merge(&h)
			merged[name] = m
		}
	}
	if len(merged) > 0 {
		fm.Clients = make(map[string]*FleetLatency, len(merged))
		for name, h := range merged {
			fm.Clients[name] = &FleetLatency{
				Count: h.N,
				P50:   h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
				Mean: h.Mean(), Hist: h,
			}
		}
	}
	return fm
}

// Sweeps lists every sweep.
func (s *Server) Sweeps() []SweepStatus {
	s.mu.Lock()
	sweeps := append([]*Sweep(nil), s.sweeps...)
	s.mu.Unlock()
	out := make([]SweepStatus, 0, len(sweeps))
	for _, sw := range sweeps {
		out = append(out, s.SweepStatus(sw))
	}
	return out
}

// SweepByRef finds a sweep by name or, failing every name, by ID when
// the whole ref is a number.
func (s *Server) SweepByRef(ref string) (*Sweep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.sweeps {
		if sw.Name == ref {
			return sw, nil
		}
	}
	if id, err := strconv.ParseInt(ref, 10, 64); err == nil {
		for _, sw := range s.sweeps {
			if sw.ID == id {
				return sw, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: sweep %q", ErrNotFound, ref)
}

// SweepStatus summarizes a sweep.
func (s *Server) SweepStatus(sw *Sweep) SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SweepStatus{ID: sw.ID, Name: sw.Name, Total: len(sw.jobs), Finalized: sw.finalized, Summary: string(sw.summary)}
	for _, j := range sw.jobs {
		st.Jobs = append(st.Jobs, s.statusLocked(j))
		switch j.state {
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
// barrier, stamps its manifest, and is parked resumable; the queue and
// every job's state persist to the state file so a restarted server
// resumes where this one stopped. If ctx expires first, in-flight jobs
// are hard-stopped and resume from their last periodic checkpoint
// instead of a fresh one.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cond.Broadcast()
	s.logf("jobd: draining: %d queued", s.queueLen.Load())

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("jobd: drain grace expired; hard-stopping in-flight jobs")
		s.mu.Lock()
		for _, j := range s.order {
			if j.state == StateRunning && j.stopFn != nil {
				j.cause.CompareAndSwap(causeNone, causeDrain)
				j.stopFn()
			}
		}
		s.mu.Unlock()
		<-done
	}
	s.saveState()
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
	for _, j := range s.order {
		if j.state == StateRunning && j.stopFn != nil {
			j.cause.CompareAndSwap(causeNone, causeCancel)
			j.stopFn()
		}
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cond.Broadcast()
	s.wg.Wait()
	return nil
}

// worker pulls jobs off the queue until the server closes or drains.
// It waits only on an empty queue, so every push that can happen while
// workers wait (a submit, a preemption's requeue) signals the cond.
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
		j.state = StateRunning
		s.mu.Unlock()
		s.supervise(j)
	}
}

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
		if j.cancelReq.Load() {
			s.mu.Unlock()
			s.finishJob(j, StateCanceled, "", nil)
			return
		}
		j.state = StateRunning
		j.attempts++
		attempt := j.attempts
		s.mu.Unlock()

		runErr := s.attempt(j, attempt)
		cause := j.takeCause()

		if runErr == nil {
			s.completeJob(j)
			return
		}
		switch cause {
		case causePreempt, causeDrain:
			// Not a failure: the run checkpointed (or was hard-stopped
			// onto its last periodic checkpoint) and parks resumable.
			s.mu.Lock()
			j.attempts--
			if cause == causePreempt {
				j.preemptions++
			}
			j.state = StatePreempted
			j.resumable = true
			s.pushQueueLocked(j)
			s.mu.Unlock()
			s.stampManifest(j, string(StatePreempted), nil)
			s.saveState()
			if cause == causePreempt {
				s.logf("jobd: job %s preempted at cycle %d (checkpoint %d)",
					j.Spec.Name, j.progress.Load(), j.ckptCycle.Load())
				s.cond.Signal()
			}
			return
		case causeCancel:
			s.finishJob(j, StateCanceled, "", runErr)
			return
		}
		kind := classifyFailure(runErr, cause)
		if kind == "" {
			// A cancellation we did not cause: the server is closing.
			s.finishJob(j, StateCanceled, "", runErr)
			return
		}
		if attempt > j.maxRetries(s.opts) {
			s.finishJob(j, StateFailed, kind, runErr)
			return
		}
		s.mu.Lock()
		j.resumable = true
		s.mu.Unlock()
		s.logf("jobd: job %s attempt %d failed (%s): %v; retrying from checkpoint",
			j.Spec.Name, attempt, kind, runErr)
		if d := run.RetryDelay(s.opts.RetryBackoff, s.opts.RetryBackoffMax, attempt, rng); d > 0 {
			select {
			case <-time.After(d):
			case <-s.stopCh:
				// Server draining/closing mid-backoff: park resumable.
				s.mu.Lock()
				j.attempts--
				j.state = StatePreempted
				s.pushQueueLocked(j)
				s.mu.Unlock()
				s.stampManifest(j, string(StatePreempted), nil)
				return
			}
		}
	}
}

// classifyFailure maps an attempt error and stop cause to a FailKind;
// "" means an external cancellation that should not count as failure.
func classifyFailure(err error, cause int32) string {
	switch cause {
	case causeKilled:
		return FailKilled
	case causeTimeout:
		return FailTimeout
	}
	switch {
	case errors.Is(err, ErrDisk):
		return FailDisk
	case errors.Is(err, core.ErrPanic):
		return FailPanic
	case errors.Is(err, core.ErrDeadlock):
		return FailDeadlock
	case errors.Is(err, core.ErrCanceled):
		return ""
	default:
		return FailError
	}
}

// attempt runs one try of the job on a fresh machine (run.Start): chaos
// on the first attempt only, resumed from the job's checkpoint when a
// usable one exists, with live progress, kill, cancel, preemption and
// drain riding the cycle hook.
func (s *Server) attempt(j *Job, attempt int) error {
	spec := j.Spec
	cfg, err := ResolveConfig(spec.Config)
	if err != nil {
		return err
	}
	switch {
	case spec.WatchdogWindow > 0:
		cfg.WatchdogWindow = spec.WatchdogWindow
	case spec.WatchdogWindow == 0 && s.opts.WatchdogWindow > 0:
		cfg.WatchdogWindow = s.opts.WatchdogWindow
	default:
		cfg.WatchdogWindow = 0
	}
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
	s.mu.Lock()
	resumable := j.resumable
	s.mu.Unlock()
	if attempt > 1 || resumable {
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
	if attempt == 1 {
		rs.Chaos = s.opts.Chaos.PanicPlan(spec.Name)
		kill = s.opts.Chaos.KillFor(spec.Name)
	}
	sess, err := run.StartOrReplay(rs, s.logf)
	if err != nil {
		return err
	}
	pipe, eng, col := sess.Pipe, sess.Engine, sess.Spans
	if sess.RestoredCycle > 0 {
		s.logf("jobd: job %s resuming from checkpoint at cycle %d", spec.Name, sess.RestoredCycle)
	}
	s.mu.Lock()
	j.stopFn = pipe.Sim.Stop
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		j.stopFn = nil
		s.mu.Unlock()
	}()

	ctx := context.Background()
	if d := j.timeout(s.opts); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// The cycle hook runs in the clock loop at every barrier: it
	// publishes live progress and implements worker-kill
	// chaos, cancellation, fairness preemption and drain — the latter
	// two by forcing a checkpoint and stopping once it lands. Progress
	// is for whoever polls the job from outside: the cycle is published
	// every progressEvery cycles and when the run ends, the checkpoint
	// cycle when a capture moved it. Every decision below stays per
	// cycle.
	dispatchStart := int64(-1)
	preemptReq := int64(-1)
	killArmed := kill != nil
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
		if killArmed && cycle >= kill.Cycle {
			killArmed = false
			j.cause.CompareAndSwap(causeNone, causeKilled)
			pipe.Sim.Stop()
			return
		}
		if j.cancelReq.Load() {
			j.cause.CompareAndSwap(causeNone, causeCancel)
			pipe.Sim.Stop()
			return
		}
		want := causeNone
		if s.draining.Load() {
			want = causeDrain
		} else if q := s.opts.PreemptCycles; q > 0 && cycle-dispatchStart >= q && s.queueLen.Load() > 0 {
			want = causePreempt
		}
		if want == causeNone {
			return
		}
		if preemptReq < 0 {
			preemptReq = cycle
			eng.ForceNext()
			return
		}
		if eng.LastCycle() >= preemptReq {
			j.cause.CompareAndSwap(causeNone, want)
			pipe.Sim.Stop()
		}
	})

	if runErr := sess.Run(ctx); runErr != nil {
		j.progress.Store(reached)
		if errors.Is(runErr, core.ErrCanceled) && ctx.Err() != nil {
			j.cause.CompareAndSwap(causeNone, causeTimeout)
		}
		s.mu.Lock()
		j.crash = pipe.Sim.Crash()
		s.mu.Unlock()
		return runErr
	}

	var buf bytes.Buffer
	if err := pipe.DumpCSV(&buf); err != nil {
		return err
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
	j.cycles = pipe.Cycles()
	j.fps = pipe.FPS()
	j.crash = nil
	j.progress.Store(pipe.Cycles())
	j.spanHists = spanHists
	j.spanDump = spanDump
	j.spanTotal = spanTotal
	s.mu.Unlock()
	return nil
}

// completeJob persists a finished job's outputs. A stats-CSV write
// that keeps failing degrades the job to StateFailed/FailDisk — the
// result bytes stay in memory, so a later sweep convergence pass can
// still recover the file if the disk comes back.
func (s *Server) completeJob(j *Job) {
	s.mu.Lock()
	data := j.csv
	s.mu.Unlock()
	if err := s.writeDurable("stats csv", s.csvPath(j), data); err != nil {
		s.finishJob(j, StateFailed, FailDisk, err)
		return
	}
	s.mu.Lock()
	if j.state.terminal() {
		// A cancel (or anything else) that raced the completion already
		// parked the job; terminal states are sticky.
		s.mu.Unlock()
		return
	}
	j.state = StateDone
	j.failKind, j.errMsg = "", ""
	j.resumable = false
	sw := j.sweep
	s.mu.Unlock()
	os.Remove(s.ckptPath(j))
	s.stampManifest(j, string(StateDone), nil)
	s.logf("jobd: job %s done: %d cycles", j.Spec.Name, j.cycles)
	s.maybeYank(j)
	if sw != nil {
		s.maybeFinalize(sw)
	}
	s.saveState()
}

// finishJob moves a job to a terminal state. Terminal states are
// sticky: a cancel racing a completion (or any other double finish)
// must not overwrite the first outcome.
func (s *Server) finishJob(j *Job, st State, kind string, err error) {
	s.mu.Lock()
	if j.state.terminal() {
		s.mu.Unlock()
		return
	}
	j.state = st
	j.failKind = kind
	if err != nil {
		j.errMsg = err.Error()
	}
	sw := j.sweep
	s.mu.Unlock()
	if st == StateFailed {
		s.logf("jobd: job %s failed (%s) after %d attempts: %v", j.Spec.Name, kind, j.attempts, err)
	}
	s.stampManifest(j, string(st), err)
	if sw != nil {
		s.maybeFinalize(sw)
	}
	s.saveState()
}

// maybeYank applies the chaos output-directory yank after the named
// job completes.
func (s *Server) maybeYank(j *Job) {
	if s.opts.Chaos == nil || !s.opts.Chaos.YankAfter(j.Spec.Name) {
		return
	}
	s.mu.Lock()
	fired := s.yanked
	s.yanked = true
	s.mu.Unlock()
	if fired {
		return
	}
	s.logf("jobd: chaos: yanking output directory %s", s.opts.OutDir)
	os.RemoveAll(s.opts.OutDir)
}

// maybeFinalize runs the sweep's convergence pass once every job is
// terminal: rewrite any stats CSV that is missing or differs from the
// in-memory result (a chaos yank or disk fault may have destroyed
// them), then write the deterministic sweep summary and release
// waiters.
func (s *Server) maybeFinalize(sw *Sweep) {
	s.mu.Lock()
	if sw.finalizing || sw.finalized {
		s.mu.Unlock()
		return
	}
	for _, j := range sw.jobs {
		if !j.state.terminal() {
			s.mu.Unlock()
			return
		}
	}
	sw.finalizing = true
	jobs := append([]*Job(nil), sw.jobs...)
	s.mu.Unlock()

	for _, j := range jobs {
		s.mu.Lock()
		st, data := j.state, j.csv
		s.mu.Unlock()
		if st != StateDone || len(data) == 0 {
			continue
		}
		path := s.csvPath(j)
		if got, err := os.ReadFile(path); err == nil && bytes.Equal(got, data) {
			continue
		}
		if err := s.writeDurable("stats csv", path, data); err != nil {
			s.logf("jobd: degraded: sweep %s could not restore %s: %v", sw.Name, path, err)
		} else {
			s.logf("jobd: sweep %s: restored missing/damaged %s", sw.Name, path)
		}
	}
	summary := s.buildSummary(sw, jobs)
	if err := s.writeDurable("sweep summary", s.summaryPath(sw), summary); err != nil {
		s.logf("jobd: degraded: sweep %s summary not written: %v", sw.Name, err)
	}
	s.mu.Lock()
	sw.finalized = true
	sw.summary = summary
	s.mu.Unlock()
	close(sw.done)
	s.saveState()
}

// buildSummary renders the deterministic sweep summary: only job specs
// and simulation results, sorted by job name, no wall-clock or attempt
// counts — so a chaos-battered run is byte-identical to a clean
// one-shot.
func (s *Server) buildSummary(sw *Sweep, jobs []*Job) []byte {
	sorted := append([]*Job(nil), jobs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Spec.Name < sorted[b].Spec.Name })
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "sweep %s: %d jobs\n", sw.Name, len(sorted))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range sorted {
		if j.state == StateDone {
			fmt.Fprintf(&buf, "%s config=%s workload=%s cycles=%d fps=%.2f\n",
				j.Spec.Name, j.Spec.Config, j.Spec.Workload, j.cycles, j.fps)
		} else {
			fmt.Fprintf(&buf, "%s config=%s workload=%s state=%s kind=%s\n",
				j.Spec.Name, j.Spec.Config, j.Spec.Workload, j.state, j.failKind)
		}
	}
	return buf.Bytes()
}

func (s *Server) csvPath(j *Job) string {
	return filepath.Join(s.opts.OutDir, j.Spec.Name+".csv")
}

func (s *Server) ckptPath(j *Job) string {
	return filepath.Join(s.opts.CkptDir, j.Spec.Name+".ckpt")
}

func (s *Server) manifestPath(j *Job) string {
	return filepath.Join(s.opts.OutDir, j.Spec.Name+"-manifest.json")
}

func (s *Server) summaryPath(sw *Sweep) string {
	return filepath.Join(s.opts.OutDir, sw.Name+"-summary.txt")
}

// stampManifest writes the job's provenance manifest. Its loss never
// fails the job — the manifest is audit metadata, not the result.
func (s *Server) stampManifest(j *Job, state string, cause error) {
	m := obsv.NewManifest("jobd", nil)
	m.State = state
	m.Config = j.Spec.Config
	m.Trace = j.Spec.Workload
	m.Seed = j.Spec.Seed
	s.mu.Lock()
	m.Attempt = j.attempts
	m.Cycles = j.progress.Load()
	if j.state == StateDone {
		m.Cycles = j.cycles
	}
	if j.errMsg != "" {
		m.Error = j.errMsg
	}
	resumable := j.resumable
	s.mu.Unlock()
	if cause != nil {
		m.Error = cause.Error()
	}
	m.LastCheckpoint = j.ckptCycle.Load()
	if resumable {
		m.RestoredFrom = s.ckptPath(j)
	}
	m.Finish(0, nil)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	if werr := s.writeDurable("manifest", s.manifestPath(j), append(data, '\n')); werr != nil {
		s.logf("jobd: degraded: %v", werr)
	}
}

// writeDurable is the degradation-aware write every output goes
// through: atomic rename with the parent directory recreated on each
// try (healing a yanked output tree), retried a few times, and a
// typed *DiskError on persistent failure instead of a crash.
func (s *Server) writeDurable(op, path string, data []byte) error {
	var err error
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		if err = fsatomic.WriteFile(path, data); err == nil {
			return nil
		}
	}
	return &DiskError{Op: op, Path: path, Err: err}
}

// RunSweep is the one-shot mode: run the sweep to completion on a
// local pool with no HTTP front end and return its final status. The
// server mode produces byte-identical outputs for the same spec. A
// re-invocation over the same output directory attaches to the
// persisted state and resumes instead of restarting.
func RunSweep(ctx context.Context, opts Options, spec SweepSpec) (SweepStatus, error) {
	if opts.Workers == 0 {
		opts.Workers = 1
	}
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
		// checkpoints and the state file records a resumable sweep.
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

// ParseSweepFile reads a SweepSpec from a JSON file.
func ParseSweepFile(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, err
	}
	var spec SweepSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return SweepSpec{}, fmt.Errorf("jobd: sweep spec %s: %w", path, err)
	}
	return spec, nil
}
