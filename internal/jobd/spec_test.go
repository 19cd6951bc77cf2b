package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
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
// reason to refuse it. Sweep files written for older binaries carry
// "tenant", "priority" and "resume", or a job's own "retries",
// "timeoutSec" and "watchdogWindow"; each parses and normalizes to the
// job it names without them, and the keys are ignored.
func TestOldFilesWithTenantKeysLoad(t *testing.T) {
	want, err := NormalizeSweep(SweepSpec{Name: "keys", Jobs: []JobSpec{{Name: "old"}}})
	if err != nil {
		t.Fatal(err)
	}
	for what, body := range map[string]string{
		"tenant/priority/resume": `{"name": "keys", "jobs": [
			{"name": "old", "tenant": "a", "priority": 9, "resume": true}]}`,
		"retries/timeoutSec/watchdogWindow": `{"name": "keys",
			"defaults": {"retries": 3, "timeoutSec": 60, "watchdogWindow": 5000},
			"jobs": [{"name": "old", "retries": -1, "timeoutSec": 2.5, "watchdogWindow": 1000}]}`,
	} {
		path := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSweepFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if jobs, err := NormalizeSweep(spec); err != nil || len(jobs) != 1 || jobs[0] != want[0] {
			t.Errorf("sweep file with %s keys: %+v, %v; want %+v", what, jobs, err, want[0])
		}
	}
}

// TestSecondSweepRefused: a server runs one sweep. While it runs, a
// second SubmitSweep (other jobs, or the same name with one more) is
// refused and admits nothing, and the first sweep still finishes with
// a clean run's CSV and nothing of the second on disk.
func TestSecondSweepRefused(t *testing.T) {
	_, cleanCSV := cleanRun(t)
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 1, Retries: -1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sw, err := s.SubmitSweep(SweepSpec{Name: "first", Jobs: []JobSpec{testSpec("first-1")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, second := range []SweepSpec{
		{Name: "second", Jobs: []JobSpec{testSpec("second-1")}},
		{Name: "first", Jobs: []JobSpec{testSpec("first-1"), testSpec("second-1")}},
	} {
		if got, err := s.SubmitSweep(second); err == nil || got != nil {
			t.Errorf("a second sweep %s: %v, %v; want it refused", second.Name, got, err)
		}
	}
	if _, err := s.JobStatus("second-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second-1 of a refused sweep: %v, want ErrNotFound", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStatus(sw); st.Name != "first" || st.Done != 1 || len(s.Jobs()) != 1 {
		t.Errorf("the first sweep after the refusals: %+v, %d jobs held", st, len(s.Jobs()))
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "first-1.csv")); err != nil || !bytes.Equal(csv, cleanCSV) {
		t.Errorf("first-1.csv differs from the clean run (%v)", err)
	}
	for _, f := range []string{"second-1.csv", "second-1-manifest.json", "second-summary.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s of the refused sweep: %v, want none", f, err)
		}
	}
}

// TestTimeoutOverride: the server's JobTimeout bounds every attempt of
// every job and stops it as a failure of its own kind. A 1 ns timeout
// fails the job on its one attempt.
func TestTimeoutOverride(t *testing.T) {
	s := New(Options{OutDir: t.TempDir(), Workers: 1, Retries: -1, JobTimeout: 1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitSweep(SweepSpec{Name: "timeouts", Jobs: []JobSpec{testSpec("timed")}}); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, "timed", ""); st.State != StateFailed || st.FailKind != FailTimeout || st.Attempts != 1 {
		t.Errorf("timed job: %s/%s after %d attempts, want failed/timeout after 1", st.State, st.FailKind, st.Attempts)
	}
}
