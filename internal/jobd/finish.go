package jobd

// A job's terminal transitions, a sweep's finalization and summary,
// every file the server writes, and how a resubmitted sweep reads its
// jobs' manifests back.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"attila/internal/core"
	"attila/internal/fsatomic"
	"attila/internal/obsv"
)

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

// completeJob writes a finished job's stats CSV and its span dump (nil
// when tracing was off), then finishes it. A CSV write that keeps
// failing degrades the job to StateFailed/FailDisk — the result bytes
// stay in memory, so a later sweep convergence pass can still recover
// the file if the disk comes back. Like the manifest, a lost span dump
// never fails the job.
func (s *Server) completeJob(j *Job, spans []byte) {
	s.mu.Lock()
	data := j.csv
	s.mu.Unlock()
	if err := s.writeDurable("stats csv", s.outPath(j, ".csv"), data); err != nil {
		s.finishJob(j, StateFailed, FailDisk, err)
		return
	}
	if spans != nil {
		s.keep("span dump", s.outPath(j, "-spans.ndjson"), spans)
	}
	s.finishJob(j, StateDone, "", nil)
}

// failJob ends a job that ran out of retries, leaving the black box of
// its last attempt (nil when that attempt never ran) in
// <name>-crash.json. Like the manifest, a lost report never changes the
// outcome.
func (s *Server) failJob(j *Job, kind string, err error, crash *core.CrashReport) {
	if crash != nil {
		var buf bytes.Buffer
		if crash.WriteJSON(&buf) == nil {
			s.keep("crash report", s.outPath(j, "-crash.json"), buf.Bytes())
		}
	}
	s.finishJob(j, StateFailed, kind, err)
}

// finishJob moves a job to a terminal state. Terminal states are
// sticky: a second finish never overwrites the first outcome.
func (s *Server) finishJob(j *Job, st State, kind string, err error) {
	s.mu.Lock()
	if j.State.terminal() {
		s.mu.Unlock()
		return
	}
	j.State, j.FailKind, j.Error = st, kind, ""
	if err != nil {
		j.Error = err.Error()
	}
	if st == StateDone {
		j.Resumable = false
	}
	sw := j.sweep
	s.mu.Unlock()
	switch st {
	case StateDone:
		os.Remove(s.ckptPath(j))
		s.logf("jobd: job %s done: %d cycles", j.Spec.Name, j.Cycles)
	case StateFailed:
		s.logf("jobd: job %s failed (%s) after %d attempts: %v", j.Spec.Name, kind, j.Attempts, err)
	}
	s.stampManifest(j, string(st), err)
	if st == StateDone {
		s.maybeYank(j)
	}
	if sw != nil {
		s.maybeFinalize(sw)
	}
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
// terminal: rewrite any done job's stats CSV or manifest that is
// missing or differs from the bytes kept in memory (a chaos yank or
// disk fault may have destroyed them), then write the deterministic
// sweep summary and release waiters.
func (s *Server) maybeFinalize(sw *Sweep) {
	s.mu.Lock()
	if sw.finalizing || sw.finalized {
		s.mu.Unlock()
		return
	}
	for _, j := range sw.jobs {
		if !j.State.terminal() {
			s.mu.Unlock()
			return
		}
	}
	sw.finalizing = true
	jobs := append([]*Job(nil), sw.jobs...)
	s.mu.Unlock()

	for _, j := range jobs {
		s.mu.Lock()
		st, csv, manifest := j.State, j.csv, j.manifest
		s.mu.Unlock()
		if st == StateDone {
			s.converge(sw, "stats csv", s.outPath(j, ".csv"), csv)
			s.converge(sw, "manifest", s.outPath(j, "-manifest.json"), manifest)
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
}

// converge rewrites the file at path unless it already holds data.
func (s *Server) converge(sw *Sweep, op, path string, data []byte) {
	if len(data) == 0 {
		return
	}
	if got, err := os.ReadFile(path); err == nil && bytes.Equal(got, data) {
		return
	}
	if err := s.writeDurable(op, path, data); err != nil {
		s.logf("jobd: degraded: sweep %s could not restore %s: %v", sw.Name, path, err)
	} else {
		s.logf("jobd: sweep %s: restored missing/damaged %s", sw.Name, path)
	}
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
		if j.State == StateDone {
			fmt.Fprintf(&buf, "%s config=%s workload=%s cycles=%d fps=%.2f\n",
				j.Spec.Name, j.Spec.Config, j.Spec.Workload, j.Cycles, j.FPS)
		} else {
			fmt.Fprintf(&buf, "%s config=%s workload=%s state=%s kind=%s\n",
				j.Spec.Name, j.Spec.Config, j.Spec.Workload, j.State, j.FailKind)
		}
	}
	return buf.Bytes()
}

// outPath is the path of the job's output file with the given suffix:
// ".csv", "-manifest.json", "-spans.ndjson" or "-crash.json".
func (s *Server) outPath(j *Job, suffix string) string {
	return filepath.Join(s.opts.OutDir, j.Spec.Name+suffix)
}

func (s *Server) ckptPath(j *Job) string {
	return filepath.Join(s.opts.CkptDir, j.Spec.Name+".ckpt")
}

func (s *Server) summaryPath(sw *Sweep) string {
	return filepath.Join(s.opts.OutDir, sw.Name+"-summary.txt")
}

// jobManifest is a job's <name>-manifest.json: the run's provenance
// and the job's durable record. Besides obsv.Manifest's fields it
// carries the job's normalized spec and the two record fields the
// manifest has no key for, which is all a resubmitted sweep needs to
// pick the job up again (readJobs). The record itself is not
// embedded: its "state" and "error" keys are obsv.Manifest's too, and
// encoding/json drops both fields of a colliding pair.
type jobManifest struct {
	obsv.Manifest
	Spec     *JobSpec `json:"spec"`
	FPS      float64  `json:"fps,omitempty"`
	FailKind string   `json:"failKind,omitempty"`
}

// stampManifest writes the job's manifest, and keeps a done job's
// bytes for the sweep's convergence pass. Its loss never fails the
// job: a job without a manifest runs again on a resubmit, to the same
// result.
func (s *Server) stampManifest(j *Job, state string, cause error) {
	m := jobManifest{Manifest: *obsv.NewManifest("jobd", nil), Spec: &j.Spec}
	m.State = state
	m.Config = j.Spec.Config
	m.Trace = j.Spec.Workload
	m.Seed = j.Spec.Seed
	s.mu.Lock()
	m.Attempt = j.Attempts
	m.Cycles = j.progress.Load()
	if j.State == StateDone {
		m.Cycles, m.FPS = j.Cycles, j.FPS
	}
	m.Error, m.FailKind = j.Error, j.FailKind
	resumable := j.Resumable
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
	data = append(data, '\n')
	if state == string(StateDone) {
		s.mu.Lock()
		j.manifest = data
		s.mu.Unlock()
	}
	s.keep("manifest", s.outPath(j, "-manifest.json"), data)
}

// readJobs builds a sweep's jobs from their normalized specs, each
// picking up from the files an earlier run left of it in OutDir. The
// directory is listed once; only manifests present are read. A job
// whose manifest is missing, unreadable or has no spec (an older
// binary's) runs afresh. A manifest whose spec differs from the job's
// is ErrDuplicate. Otherwise the manifest's state decides:
//
//   - done: the job stays done, its stats CSV reloaded — unless the CSV
//     is gone, and then it runs again, to the same bytes;
//   - failed or canceled: the job keeps that outcome;
//   - preempted: the job resumes from its checkpoint.
//
// The state file older binaries kept beside the manifests,
// jobd-state.json, is read by nothing; it is removed, so a finished
// directory does not go on saying its jobs are queued or preempted.
func (s *Server) readJobs(norm []JobSpec) ([]*Job, error) {
	present := map[string]bool{}
	if entries, err := os.ReadDir(s.opts.OutDir); err == nil {
		for _, e := range entries {
			present[e.Name()] = true
		}
	}
	if present["jobd-state.json"] {
		path := filepath.Join(s.opts.OutDir, "jobd-state.json")
		if err := os.Remove(path); err != nil {
			s.logf("jobd: %v", err)
		} else {
			s.logf("jobd: removed %s, an older binary's state file", path)
		}
	}
	jobs := make([]*Job, len(norm))
	for i, spec := range norm {
		j := &Job{Spec: spec, record: record{State: StateQueued}}
		jobs[i] = j
		if !present[spec.Name+"-manifest.json"] {
			continue
		}
		data, err := os.ReadFile(s.outPath(j, "-manifest.json"))
		var m jobManifest
		if err != nil || json.Unmarshal(data, &m) != nil || m.Spec == nil {
			continue
		}
		if *m.Spec != spec {
			return nil, fmt.Errorf("%w: job %s exists with a different spec", ErrDuplicate, spec.Name)
		}
		switch st := State(m.State); st {
		case StateDone:
			if csv, err := os.ReadFile(s.outPath(j, ".csv")); err == nil {
				j.record = record{State: st, Attempts: m.Attempt, Cycles: m.Cycles, FPS: m.FPS}
				j.csv, j.manifest = csv, data
				j.progress.Store(m.Cycles)
			}
		case StateFailed, StateCanceled:
			j.record = record{State: st, FailKind: m.FailKind, Error: m.Error, Attempts: m.Attempt}
		case StatePreempted:
			j.Attempts, j.Resumable = m.Attempt, true
		}
	}
	return jobs, nil
}

// keep writes a file whose loss costs provenance or resumability, never
// a result: a write that keeps failing is logged, not returned.
func (s *Server) keep(op, path string, data []byte) {
	if err := s.writeDurable(op, path, data); err != nil {
		s.logf("jobd: degraded: %v", err)
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
