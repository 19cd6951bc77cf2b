package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestStateFileTornWrite pins the corrupt-state quarantine: a
// half-written jobd-state.json must not brick startup — the bytes are
// quarantined to .corrupt and the server starts fresh.
func TestStateFileTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 1, Retries: -1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(SweepSpec{Name: "torn", Jobs: []JobSpec{testSpec("torn-1")}}); err != nil {
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
// submission order, and a parked job requeues behind every job already
// waiting.
func TestDispatchIsFIFO(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()})
	for _, name := range []string{"j1", "j2", "j3"} {
		s.submitLocked(testSpec(name), nil)
	}
	first := s.nextJobLocked()
	s.queue = append(s.queue, first) // what park does
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
		s.submitLocked(testSpec(names[i]), nil)
	}
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.mu.Lock()
			j := s.jobs[name]
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
