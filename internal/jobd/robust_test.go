package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCancelAfterDoneKeepsTerminalState pins the cancel/complete
// race: a cancel that lands after the job completed must not
// overwrite the terminal state (and vice versa — a completion must
// not overwrite a cancel).
func TestCancelAfterDoneKeepsTerminalState(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 1, Retries: -1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitJob(testSpec("race-done")); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, "race-done", StateDone)
	if err := s.CancelJob("race-done"); err != nil {
		t.Fatalf("cancel of done job: %v", err)
	}
	st, _ = s.JobStatus("race-done")
	if st.State != StateDone {
		t.Fatalf("cancel overwrote terminal state: got %s, want done", st.State)
	}
	if _, err := os.Stat(dir + "/race-done.csv"); err != nil {
		t.Fatalf("done job lost its CSV after late cancel: %v", err)
	}
}

// TestCancelCompleteStress races CancelJob against completing jobs
// under the race detector: whatever interleaving happens, each job
// lands in exactly one terminal state and never leaves it.
func TestCancelCompleteStress(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 2, Retries: -1, CheckpointInterval: 50_000})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 4
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("stress-%d", i)
		if _, err := s.SubmitJob(testSpec(name)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Hammer cancel while the job runs and completes.
			for {
				st, err := s.JobStatus(name)
				if err != nil {
					return
				}
				if st.State.terminal() {
					return
				}
				_ = s.CancelJob(name)
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("stress-%d", i)
		st := waitState(t, s, name, "")
		if st.State != StateDone && st.State != StateCanceled {
			t.Fatalf("job %s: unexpected terminal state %s (%s: %s)", name, st.State, st.FailKind, st.Error)
		}
		// Terminal states are sticky: re-read after the cancel goroutines
		// have certainly fired a few more times.
		time.Sleep(20 * time.Millisecond)
		again, _ := s.JobStatus(name)
		if again.State != st.State {
			t.Fatalf("job %s flipped terminal state: %s -> %s", name, st.State, again.State)
		}
	}
	wg.Wait()
}

// TestStateFileTornWrite pins the corrupt-state quarantine: a
// half-written jobd-state.json must not brick startup — the bytes are
// quarantined to .corrupt and the server starts fresh.
func TestStateFileTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 1, Retries: -1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(testSpec("torn-1")); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "torn-1", StateDone)
	s.Close()

	// Tear the state file mid-JSON, as a crash mid-write would.
	statePath := dir + "/jobd-state.json"
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{OutDir: dir, Workers: 1, Retries: -1})
	lerr := s2.loadState()
	if lerr == nil {
		t.Fatal("loadState accepted a torn state file")
	}
	if !errors.Is(lerr, ErrStateCorrupt) {
		t.Fatalf("torn state error = %v, want ErrStateCorrupt", lerr)
	}
	var sfe *StateFileError
	if !errors.As(lerr, &sfe) || sfe.Quarantine == "" {
		t.Fatalf("torn state error missing quarantine path: %v", lerr)
	}
	quarantined, err := os.ReadFile(sfe.Quarantine)
	if err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	if !bytes.Equal(quarantined, data[:len(data)/2]) {
		t.Fatal("quarantined bytes differ from the torn file")
	}
	if _, err := os.Stat(statePath); !os.IsNotExist(err) {
		t.Fatal("torn state file still in place after quarantine")
	}

	// A fresh server over the same directory starts clean.
	s3 := New(Options{OutDir: dir, Workers: 1, Retries: -1})
	if err := s3.Start(); err != nil {
		t.Fatalf("Start after quarantine: %v", err)
	}
	if len(s3.Jobs()) != 0 {
		t.Fatalf("expected fresh state after quarantine, got %d jobs", len(s3.Jobs()))
	}
	s3.Close()
}

// TestDispatchIsFIFO drives nextJobLocked directly: jobs dispatch in
// submission order, and a preempted job requeues behind every job
// already waiting.
func TestDispatchIsFIFO(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()})
	for _, name := range []string{"j1", "j2", "j3"} {
		if _, err := s.submitLocked(testSpec(name), nil); err != nil {
			t.Fatal(err)
		}
	}
	first := s.nextJobLocked()
	s.pushQueueLocked(first) // what supervise does on a preemption
	got := []string{first.Spec.Name}
	for j := s.nextJobLocked(); j != nil; j = s.nextJobLocked() {
		got = append(got, j.Spec.Name)
	}
	if want := "j1,j2,j3,j1"; strings.Join(got, ",") != want {
		t.Fatalf("dispatch order = %v, want %s", got, want)
	}
}

// TestStateFileNeverGoesBack races saveState: each goroutine moves its
// own job to a terminal state and saves. Whatever the interleaving, the
// file left by the last save must hold every job's final state; an
// older snapshot renamed over a newer one would make a restarted server
// re-run a done job or resurrect a canceled one.
func TestStateFileNeverGoesBack(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()}) // no Start: no worker touches the jobs
	const n = 8
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("save-%d", i)
		if _, err := s.submitLocked(testSpec(names[i]), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.mu.Lock()
			j := s.jobs[name]
			s.removeQueuedLocked(j)
			j.State = StateDone
			if i%2 == 1 {
				j.State = StateCanceled
			}
			s.mu.Unlock()
			s.saveState()
		}()
	}
	wg.Wait()

	data, err := os.ReadFile(s.opts.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != n {
		t.Fatalf("state file has %d jobs, want %d", len(st.Jobs), n)
	}
	for _, pj := range st.Jobs {
		if want := s.jobs[pj.Spec.Name].State; pj.State != want {
			t.Errorf("state file: %s is %s, in memory %s", pj.Spec.Name, pj.State, want)
		}
	}
}

// TestRefIsNameOrWholeID: a job or sweep ref is a name, or an ID only
// when the whole ref is a number. "<id>x" names nothing (a cancel of it
// must not cancel job <id>), and a sweep named "1" wins over the sweep
// whose ID is 1.
func TestRefIsNameOrWholeID(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()}) // no Start: every job stays queued
	// No state file: SubmitSweep saves it from a goroutine that could
	// outlive the test's temp directory.
	s.opts.StatePath = ""
	first, err := s.SubmitSweep(SweepSpec{Name: "first", Jobs: []JobSpec{testSpec("first-1")}})
	if err != nil {
		t.Fatal(err)
	}
	named1, err := s.SubmitSweep(SweepSpec{Name: "1", Jobs: []JobSpec{testSpec("named-1")}})
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != 1 {
		t.Fatalf("first sweep has ID %d; the test needs 1", first.ID)
	}

	job, err := s.JobStatus("first-1")
	if err != nil {
		t.Fatal(err)
	}
	id := strconv.FormatInt(job.ID, 10)
	if err := s.CancelJob(id + "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CancelJob(%q) = %v, want ErrNotFound", id+"x", err)
	}
	if st, _ := s.JobStatus(id); st.Name != "first-1" || st.State != StateQueued {
		t.Fatalf("job %s after a cancel of %q: %+v, want first-1 still queued", id, id+"x", st)
	}

	for ref, want := range map[string]*Sweep{"1": named1, "first": first, strconv.FormatInt(named1.ID, 10): named1} {
		if got, err := s.SweepByRef(ref); err != nil || got != want {
			t.Errorf("SweepByRef(%q) = %v, %v; want sweep %q", ref, got, err, want.Name)
		}
	}
	if _, err := s.SweepByRef("1x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("SweepByRef(%q) = %v, want ErrNotFound", "1x", err)
	}
}

// TestSubmitBodyLimit: an oversized submit body is rejected with 413
// instead of being buffered into memory.
func TestSubmitBodyLimit(t *testing.T) {
	s := New(Options{OutDir: t.TempDir(), Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	huge := `{"name":"big","workload":"` + strings.Repeat("x", maxSubmitBody) + `"}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status = %d, want 413", resp.StatusCode)
	}
}
