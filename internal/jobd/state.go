package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// ErrStateCorrupt matches (via errors.Is) a *StateFileError: the
// durable state file exists but cannot be parsed (torn write, disk
// corruption). The server quarantines the file and starts fresh
// instead of refusing to start.
var ErrStateCorrupt = errors.New("jobd: corrupt state file")

// StateFileError reports an unusable jobd-state.json. Quarantine is
// the path the corrupt bytes were preserved at for post-mortem ("":
// the rename itself failed).
type StateFileError struct {
	Path       string
	Quarantine string
	Err        error
}

func (e *StateFileError) Error() string {
	if e.Quarantine != "" {
		return fmt.Sprintf("jobd: state file %s corrupt (quarantined to %s): %v", e.Path, e.Quarantine, e.Err)
	}
	return fmt.Sprintf("jobd: state file %s corrupt: %v", e.Path, e.Err)
}

func (e *StateFileError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrStateCorrupt) hold for every StateFileError.
func (e *StateFileError) Is(target error) bool { return target == ErrStateCorrupt }

// The state file is what makes the server itself crash-tolerant: every
// submit, completion, and drain persists the queue and job states, and
// Start loads them back — interrupted jobs requeue as resumable, done
// jobs keep their results (re-read from their stats CSVs), and sweeps
// re-finalize if their convergence pass was cut short.

type persistedJob struct {
	Spec JobSpec `json:"spec"`
	record
	Sweep string `json:"sweep,omitempty"`
}

type persistedState struct {
	NextID int64          `json:"nextId"`
	Sweeps []string       `json:"sweeps,omitempty"`
	Jobs   []persistedJob `json:"jobs"`
}

// saveState writes the durable queue/state file. Failure degrades to a
// log line: losing the state file costs resumability, never the
// running jobs. Concurrent calls write in turn, each a snapshot taken
// after the previous write, so the last write holds the newest state.
// Callers must not hold mu.
func (s *Server) saveState() {
	if s.opts.StatePath == "" {
		return
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.mu.Lock()
	st := persistedState{NextID: s.nextID}
	for _, sw := range s.sweeps {
		st.Sweeps = append(st.Sweeps, sw.Name)
	}
	for _, j := range s.order {
		st.Jobs = append(st.Jobs, persistedJob{Spec: j.Spec, record: j.record, Sweep: j.sweepName()})
	}
	s.mu.Unlock()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return
	}
	s.keep("state", s.opts.StatePath, append(data, '\n'))
}

// loadState restores the previous life's jobs and sweeps. Non-terminal
// jobs requeue (resumable when a checkpoint may exist); done jobs
// reload their stats CSV so sweep finalization can verify and heal the
// on-disk copies, and requeue for a deterministic re-run if the CSV is
// gone and the sweep still needs it.
func (s *Server) loadState() error {
	if s.opts.StatePath == "" {
		return nil
	}
	data, err := os.ReadFile(s.opts.StatePath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		// Torn write or corruption: quarantine the bytes for post-mortem
		// and start fresh rather than refusing to start. The rename is
		// what makes restarting safe — the corrupt file can never be
		// half-loaded twice.
		q := s.opts.StatePath + ".corrupt"
		if rerr := os.Rename(s.opts.StatePath, q); rerr != nil {
			q = ""
		}
		return &StateFileError{Path: s.opts.StatePath, Quarantine: q, Err: err}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID = st.NextID
	byName := make(map[string]*Sweep, len(st.Sweeps))
	for _, name := range st.Sweeps {
		s.nextID++
		sw := &Sweep{ID: s.nextID, Name: name, done: make(chan struct{})}
		byName[name] = sw
		s.sweeps = append(s.sweeps, sw)
	}
	requeued := 0
	for _, pj := range st.Jobs {
		if _, dup := s.jobs[pj.Spec.Name]; dup {
			continue
		}
		s.nextID++
		j := &Job{ID: s.nextID, Spec: pj.Spec, record: pj.record}
		if sw := byName[pj.Sweep]; sw != nil {
			j.sweep = sw
			sw.jobs = append(sw.jobs, j)
		}
		switch pj.State {
		case StateDone:
			if csv, rerr := os.ReadFile(s.outPath(j, ".csv")); rerr == nil {
				j.csv = csv
				j.progress.Store(pj.Cycles)
			} else {
				// Result lost (crash between yank and convergence):
				// deterministic re-run reproduces it exactly.
				j.record = record{State: StateQueued}
				s.queue = append(s.queue, j)
				requeued++
			}
		case StateFailed, StateCanceled:
			// Terminal; kept for the record.
		default:
			// queued, running, or preempted when the previous life
			// ended: requeue. A job that was mid-run has a checkpoint
			// to resume from (or replays deterministically without one).
			j.State = StateQueued
			if pj.State != StateQueued {
				j.Resumable = true
			}
			s.queue = append(s.queue, j)
			requeued++
		}
		s.jobs[pj.Spec.Name] = j
		s.order = append(s.order, j)
	}
	if len(st.Jobs) > 0 {
		s.logf("jobd: state restored: %d jobs (%d requeued), %d sweeps",
			len(st.Jobs), requeued, len(st.Sweeps))
	}
	return nil
}
