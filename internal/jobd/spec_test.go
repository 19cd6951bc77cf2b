package jobd

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestSubmitRejectsBadSpecs: a sweep file is input from outside the
// program, so a job spec that cannot run is refused when the sweep is
// submitted, not admitted to fail every attempt.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()}) // no Start: nothing runs
	for _, body := range []string{
		`{"name":""}`,
		`{"name":"a/b"}`,
		`{"name":"cfg","config":"nope"}`,
		`{"name":"wl","workload":"nope"}`,
		`{"name":"w","width":-1}`,
		`{"name":"f","frames":-2}`,
		`{"name":"neg","maxCycles":-5}`,
	} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitSweep(SweepSpec{Name: "bad", Jobs: []JobSpec{spec}}); err == nil {
			t.Errorf("submit %s: accepted, want an error", body)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("refused specs left %d jobs behind", len(jobs))
	}
}

// TestOldFilesWithTenantKeysLoad: keys a spec does not have are not a
// reason to refuse it. A sweep file whose job carries "tenant",
// "priority" and "resume", as sweep files written for older binaries
// did, parses and normalizes, and the keys are ignored.
func TestOldFilesWithTenantKeysLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{"name": "keys", "jobs": [
		{"name": "with-tenant", "tenant": "a", "priority": 9, "resume": true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSweepFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if jobs, err := NormalizeSweep(spec); err != nil || len(jobs) != 1 || jobs[0].Name != "with-tenant" {
		t.Errorf("sweep file with tenant/priority/resume keys: %+v, %v", jobs, err)
	}
}

// TestResubmitSweepMustMatch: a sweep resubmitted under an existing
// name attaches only when its normalized jobs equal the stored ones;
// any other job list is a conflict, and nothing of it is admitted.
func TestResubmitSweepMustMatch(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()}) // no Start: every job stays queued
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
	if _, err := s.SubmitSweep(SweepSpec{Name: "timeouts", Jobs: []JobSpec{timed, testSpec("untimed")}}); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, "timed", ""); st.State != StateFailed || st.FailKind != FailTimeout || st.Attempts != 1 {
		t.Errorf("timed job: %s/%s after %d attempts, want failed/timeout after 1", st.State, st.FailKind, st.Attempts)
	}
	if st := waitState(t, s, "untimed", ""); st.State != StateDone {
		t.Errorf("job with timeoutSec -1 under a 1ns server timeout: %s/%s, want done", st.State, st.FailKind)
	}
}
