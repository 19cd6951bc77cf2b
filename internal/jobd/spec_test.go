package jobd

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSubmitRejectsBadSpecs: a spec that cannot run is refused at
// admission with 400, not admitted to fail every attempt.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()}) // no Start: nothing runs
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"name":""}`,
		`{"name":"a/b"}`,
		`{"name":"cfg","config":"nope"}`,
		`{"name":"wl","workload":"nope"}`,
		`{"name":"w","width":-1}`,
		`{"name":"f","frames":-2}`,
		`{"name":"neg","maxCycles":-5}`,
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("refused specs left %d jobs behind", len(jobs))
	}
}

// TestResubmitSweepMustMatch: a sweep resubmitted under an existing
// name attaches only when its normalized jobs equal the stored ones;
// any other job list is a conflict, and nothing of it is admitted.
func TestResubmitSweepMustMatch(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()}) // no Start: every job stays queued
	// No state file: SubmitSweep saves it from a goroutine that could
	// outlive the test's temp directory.
	s.opts.StatePath = ""
	spec := SweepSpec{Name: "x", Jobs: []JobSpec{testSpec("x-1")}}
	sw, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	same := testSpec("x-1")
	same.Config = "" // the package default: the same job once normalized
	if got, err := s.SubmitSweep(SweepSpec{Name: "x", Jobs: []JobSpec{same}}); err != nil || got != sw {
		t.Fatalf("resubmitting the same jobs: %v, %v; want the existing sweep", got, err)
	}

	other := testSpec("x-1")
	other.Workload = "doom3"
	for what, resub := range map[string]SweepSpec{
		"one more job":   {Name: "x", Jobs: []JobSpec{testSpec("x-1"), testSpec("x-2")}},
		"other workload": {Name: "x", Jobs: []JobSpec{other}},
	} {
		if _, err := s.SubmitSweep(resub); !errors.Is(err, ErrDuplicate) {
			t.Errorf("resubmit with %s: err %v, want ErrDuplicate", what, err)
		}
	}
	if _, err := s.JobStatus("x-2"); !errors.Is(err, ErrNotFound) {
		t.Errorf("x-2 of a refused resubmit: %v, want ErrNotFound", err)
	}
	if st, _ := s.JobStatus("x-1"); st.Workload != "simple" {
		t.Errorf("x-1 runs %q after a refused resubmit, want simple", st.Workload)
	}
}

// TestRestoredSweepsKeepDistinctRefs: sweeps reloaded from a state file
// get IDs of their own, as jobs do, so each is found by its ID.
func TestRestoredSweepsKeepDistinctRefs(t *testing.T) {
	dir := t.TempDir()
	state := `{"nextId": 4, "sweeps": ["a", "b"], "jobs": [
		{"spec": {"name": "a-1"}, "state": "failed", "sweep": "a"},
		{"spec": {"name": "b-1"}, "state": "failed", "sweep": "b"}]}`
	if err := os.WriteFile(filepath.Join(dir, "jobd-state.json"), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{OutDir: dir})
	if err := s.loadState(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, st := range s.Sweeps() {
		if st.ID == 0 || seen[st.ID] {
			t.Errorf("sweep %s restored with ID %d, already taken or zero", st.Name, st.ID)
		}
		seen[st.ID] = true
		for _, j := range st.Jobs {
			if seen[j.ID] {
				t.Errorf("job %s shares ID %d with a sweep", j.Name, j.ID)
			}
		}
		if sw, err := s.SweepByRef(strconv.FormatInt(st.ID, 10)); err != nil || sw.Name != st.Name {
			t.Errorf("SweepByRef(%d) = %v, %v; want sweep %s", st.ID, sw, err, st.Name)
		}
	}
	if len(seen) != 2 {
		t.Errorf("restored %d sweeps, want 2", len(seen))
	}
}

// TestTimeoutOverride: a job's own timeout beats the server's and is
// its own failure kind; a negative one turns the server's off.
func TestTimeoutOverride(t *testing.T) {
	s := New(Options{OutDir: t.TempDir(), Workers: 1, Retries: -1, JobTimeout: 1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	timed := testSpec("timed")
	timed.TimeoutSec = 1e-9
	for _, spec := range []JobSpec{timed, testSpec("untimed")} {
		if _, err := s.SubmitJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	if st := waitState(t, s, "timed", ""); st.State != StateFailed || st.FailKind != FailTimeout || st.Attempts != 1 {
		t.Errorf("timed job: %s/%s after %d attempts, want failed/timeout after 1", st.State, st.FailKind, st.Attempts)
	}
	if st := waitState(t, s, "untimed", ""); st.State != StateDone {
		t.Errorf("job with timeoutSec -1 under a 1ns server timeout: %s/%s, want done", st.State, st.FailKind)
	}
}
