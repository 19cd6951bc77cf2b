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
	Spec        JobSpec `json:"spec"`
	State       State   `json:"state"`
	FailKind    string  `json:"failKind,omitempty"`
	Error       string  `json:"error,omitempty"`
	Attempts    int     `json:"attempts,omitempty"`
	Preemptions int     `json:"preemptions,omitempty"`
	Resumable   bool    `json:"resumable,omitempty"`
	Cycles      int64   `json:"cycles,omitempty"`
	FPS         float64 `json:"fps,omitempty"`
	Sweep       string  `json:"sweep,omitempty"`
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
		pj := persistedJob{
			Spec: j.Spec, State: j.state,
			FailKind: j.failKind, Error: j.errMsg,
			Attempts: j.attempts, Preemptions: j.preemptions,
			Resumable: j.resumable, Cycles: j.cycles, FPS: j.fps,
		}
		if j.sweep != nil {
			pj.Sweep = j.sweep.Name
		}
		st.Jobs = append(st.Jobs, pj)
	}
	s.mu.Unlock()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return
	}
	if werr := s.writeDurable("state", s.opts.StatePath, append(data, '\n')); werr != nil {
		s.logf("jobd: degraded: %v", werr)
	}
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
		sw := &Sweep{Name: name, done: make(chan struct{})}
		byName[name] = sw
		s.sweeps = append(s.sweeps, sw)
	}
	requeued := 0
	for _, pj := range st.Jobs {
		if _, dup := s.jobs[pj.Spec.Name]; dup {
			continue
		}
		s.nextID++
		j := &Job{
			ID: s.nextID, Spec: pj.Spec,
			state: pj.State, failKind: pj.FailKind, errMsg: pj.Error,
			attempts: pj.Attempts, preemptions: pj.Preemptions,
			resumable: pj.Resumable, cycles: pj.Cycles, fps: pj.FPS,
		}
		if sw := byName[pj.Sweep]; sw != nil {
			j.sweep = sw
			sw.jobs = append(sw.jobs, j)
		}
		switch pj.State {
		case StateDone:
			if csv, rerr := os.ReadFile(s.csvPath(j)); rerr == nil {
				j.csv = csv
				j.progress.Store(pj.Cycles)
			} else {
				// Result lost (crash between yank and convergence):
				// deterministic re-run reproduces it exactly.
				j.state = StateQueued
				j.attempts, j.resumable = 0, false
				j.cycles, j.fps = 0, 0
				s.pushQueueLocked(j)
				requeued++
			}
		case StateFailed, StateCanceled:
			// Terminal; kept for the record.
		default:
			// queued, running, or preempted when the previous life
			// ended: requeue. A job that was mid-run has a checkpoint
			// to resume from (or replays deterministically without one).
			j.state = StateQueued
			if pj.State != StateQueued {
				j.resumable = true
			}
			s.pushQueueLocked(j)
			requeued++
		}
		s.jobs[pj.Spec.Name] = j
		s.byID[j.ID] = j
		s.order = append(s.order, j)
	}
	if len(st.Jobs) > 0 {
		s.logf("jobd: state restored: %d jobs (%d requeued), %d sweeps",
			len(st.Jobs), requeued, len(st.Sweeps))
	}
	if s.nextID < st.NextID {
		s.nextID = st.NextID
	}
	return nil
}
