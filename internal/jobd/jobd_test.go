package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSpec is the scaled-down run every jobd test uses: multi-frame so
// quiesced checkpoints exist mid-run (safe points occur at batch
// drains, about once per frame).
func testSpec(name string) JobSpec {
	return JobSpec{
		Name: name, Config: "baseline", Workload: "simple",
		Width: 96, Height: 64, Frames: 3, Aniso: 2, Seed: 1,
		MaxCycles: 200_000_000, TimeoutSec: -1,
	}
}

var (
	totalOnce   sync.Once
	totalCycles int64
	totalCSV    []byte
	totalErr    error
)

// cleanRun measures an unsupervised run of testSpec once per test
// binary: its total cycles place faults and checkpoint intervals, and
// its stats CSV is the byte-identity reference.
func cleanRun(t *testing.T) (int64, []byte) {
	t.Helper()
	totalOnce.Do(func() {
		dir, err := os.MkdirTemp("", "jobd-clean-*")
		if err != nil {
			totalErr = err
			return
		}
		defer os.RemoveAll(dir)
		st, err := RunSweep(context.Background(),
			Options{OutDir: dir, Workers: 1, Retries: -1},
			SweepSpec{Name: "measure", Jobs: []JobSpec{testSpec("measure-1")}})
		if err != nil {
			totalErr = err
			return
		}
		totalCycles = st.Jobs[0].Cycles
		totalCSV, totalErr = os.ReadFile(filepath.Join(dir, "measure-1.csv"))
	})
	if totalErr != nil {
		t.Fatalf("clean reference run failed: %v", totalErr)
	}
	if totalCycles <= 0 {
		t.Fatal("clean reference run reported zero cycles")
	}
	return totalCycles, totalCSV
}

// waitState polls until the job reaches a state (or any terminal one
// when want is empty), failing the test on timeout.
func waitState(t *testing.T, s *Server, ref string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := s.JobStatus(ref)
		if err != nil {
			t.Fatal(err)
		}
		if (want != "" && st.State == want) || (want == "" && st.State.terminal()) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s (want %q)", ref, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A sweep submitted over HTTP must run to completion, expose live
// job/sweep status on the API, and leave per-job CSVs, manifests, and
// the deterministic sweep summary on disk.
func TestJobdHTTPSweepLifecycle(t *testing.T) {
	_, cleanCSV := cleanRun(t)
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 2, Retries: -1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := SweepSpec{Name: "api", Jobs: []JobSpec{testSpec("api-1"), testSpec("api-2")}}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}

	// Resubmitting the same sweep is the restart-continuation path, not
	// a conflict.
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit same sweep: status %d, want 202", resp.StatusCode)
	}

	// A clashing job name is a conflict.
	jb, _ := json.Marshal(testSpec("api-1"))
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(jb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate job: status %d, want 409", resp.StatusCode)
	}

	sw, err := s.SweepByRef("api")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}

	var swStatus SweepStatus
	getJSON(t, ts.URL+"/sweeps/api", &swStatus)
	if swStatus.Done != 2 || !swStatus.Finalized {
		t.Fatalf("sweep status: %+v, want 2 done and finalized", swStatus)
	}
	var jobStatus JobStatus
	getJSON(t, ts.URL+"/jobs/api-1", &jobStatus)
	if jobStatus.State != StateDone || jobStatus.Attempts != 1 {
		t.Fatalf("job api-1: %+v, want done after 1 attempt", jobStatus)
	}
	var prog map[string]any
	getJSON(t, ts.URL+"/jobs/api-1/progress", &prog)
	if prog["state"] != string(StateDone) {
		t.Fatalf("progress state = %v, want done", prog["state"])
	}
	if resp, err := http.Get(ts.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
		}
	}

	for _, name := range []string{"api-1", "api-2"} {
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("stats csv missing: %v", err)
		}
		if !bytes.Equal(csv, cleanCSV) {
			t.Errorf("%s.csv differs from the clean reference run", name)
		}
		if _, err := os.Stat(filepath.Join(dir, name+"-manifest.json")); err != nil {
			t.Errorf("manifest missing: %v", err)
		}
	}
	summary, err := os.ReadFile(filepath.Join(dir, "api-summary.txt"))
	if err != nil {
		t.Fatalf("summary missing: %v", err)
	}
	if !strings.Contains(string(summary), "api-1 config=baseline workload=simple cycles=") {
		t.Errorf("summary does not list api-1:\n%s", summary)
	}
}

// Admission control: submits past the queue limit get ErrQueueFull
// (HTTP 429 with Retry-After), a draining server answers 503.
func TestJobdAdmissionControl(t *testing.T) {
	// No Start: the queue never drains, so the limit is hit exactly.
	s := New(Options{OutDir: t.TempDir(), QueueLimit: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 1; i <= 2; i++ {
		if _, err := s.SubmitJob(testSpec(fmt.Sprintf("adm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := json.Marshal(testSpec("adm-3"))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// A sweep that would overflow the queue is rejected whole.
	swBody, _ := json.Marshal(SweepSpec{Name: "admsweep", Jobs: []JobSpec{testSpec("adm-4")}})
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(swBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit sweep: status %d, want 429", resp.StatusCode)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}
	s.Close()
}

// Cancel: a queued job is removed immediately; a running one stops at
// the next cycle boundary. Neither is retried.
func TestJobdCancel(t *testing.T) {
	cleanRun(t)
	s := New(Options{OutDir: t.TempDir(), Workers: 1, Retries: 3, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The running victim needs enough frames that the cancel lands
	// mid-run, not after completion.
	long := testSpec("run-a")
	long.Width, long.Height, long.Frames = 256, 256, 10
	if _, err := s.SubmitJob(long); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(testSpec("queued-b")); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "run-a", StateRunning)
	for {
		if st, _ := s.JobStatus("run-a"); st.Cycle > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Cancel the queued job over HTTP (DELETE form).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/queued-b", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d, want 200", resp.StatusCode)
	}
	if st := waitState(t, s, "queued-b", ""); st.State != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}

	// Cancel the running job (POST form).
	resp, err = http.Post(ts.URL+"/jobs/run-a/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, s, "run-a", "")
	if st.State != StateCanceled {
		t.Fatalf("running job state %s (kind %s), want canceled", st.State, st.FailKind)
	}
	if st.Attempts != 1 {
		t.Errorf("canceled job was attempted %d times, want 1 (cancel must not retry)", st.Attempts)
	}
}

// Fairness preemption: with one worker and two jobs, the quantum
// forces the running job to checkpoint and requeue so both make
// progress — and because restore is bit-identical, the final stats
// still match the clean run byte for byte.
func TestJobdPreemption(t *testing.T) {
	total, cleanCSV := cleanRun(t)
	dir := t.TempDir()
	s := New(Options{
		OutDir: dir, Workers: 1, Retries: -1,
		PreemptCycles:      total / 4,
		CheckpointInterval: total / 8,
		Logf:               t.Logf,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sw, err := s.SubmitSweep(SweepSpec{Name: "fair", Jobs: []JobSpec{testSpec("fair-1"), testSpec("fair-2")}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}

	st := s.SweepStatus(sw)
	if st.Done != 2 {
		t.Fatalf("sweep: %d done of %d, status %+v", st.Done, st.Total, st)
	}
	preemptions := 0
	for _, j := range st.Jobs {
		preemptions += j.Preemptions
	}
	if preemptions == 0 {
		t.Error("no preemptions happened; quantum did not fire")
	}
	for _, name := range []string{"fair-1", "fair-2"} {
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv, cleanCSV) {
			t.Errorf("%s.csv differs from the clean run after preemption", name)
		}
	}
}

// A stats CSV that cannot be written (the output path is blocked by a
// file where the directory should be) degrades the job to a typed
// failed state — the server survives.
func TestJobdDiskDegradation(t *testing.T) {
	cleanRun(t)
	base := t.TempDir()
	out := filepath.Join(base, "out")
	// The job's CSV parent "directory" is a regular file: every write
	// fails with ENOTDIR, even running as root.
	s := New(Options{
		OutDir:  filepath.Join(out, "blocked"),
		CkptDir: filepath.Join(base, "ckpt"), StatePath: filepath.Join(base, "state.json"),
		Workers: 1, Retries: -1, Logf: t.Logf,
	})
	if err := os.WriteFile(out, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Start must fail cleanly (cannot create the output tree) — that is
	// admission-level degradation.
	if err := s.Start(); err == nil {
		t.Fatal("Start succeeded with a blocked output directory")
	}

	// Now let the server start, then block the directory mid-flight.
	os.Remove(out)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.RemoveAll(s.opts.OutDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.opts.OutDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(testSpec("disk-1")); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, "disk-1", "")
	if st.State != StateFailed || st.FailKind != FailDisk {
		t.Fatalf("job state %s kind %s, want failed/disk", st.State, st.FailKind)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// The barrier hook publishes a running job's cycle every progressEvery
// cycles and once more when the run ends: whoever polls the job sees
// a cycle that never goes back, on the cadence while the job runs, and
// the run's cycle count once it is done; the checkpoint cycle moves
// with the captures.
func TestJobdProgressIsMonotone(t *testing.T) {
	total, _ := cleanRun(t)
	s := New(Options{OutDir: t.TempDir(), Workers: 1, Retries: -1, CheckpointInterval: total / 4, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitJob(testSpec("watched")); err != nil {
		t.Fatal(err)
	}
	var last JobStatus
	distinct := 0
	for {
		st, err := s.JobStatus("watched")
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycle < last.Cycle || st.CheckpointCycle < last.CheckpointCycle {
			t.Fatalf("progress went back: cycle %d after %d, checkpoint %d after %d",
				st.Cycle, last.Cycle, st.CheckpointCycle, last.CheckpointCycle)
		}
		if st.Cycle != last.Cycle {
			distinct++
		}
		if st.State.terminal() {
			last = st
			break
		}
		// Off the cadence only once the run has ended, just before the
		// state says so.
		if st.Cycle%progressEvery != 0 && st.Cycle != total {
			t.Fatalf("a running job shows cycle %d, off the %d-cycle cadence", st.Cycle, progressEvery)
		}
		last = st
		time.Sleep(50 * time.Microsecond)
	}
	if last.State != StateDone || last.Cycles != total || last.Cycle != last.Cycles {
		t.Fatalf("finished %s: progress %d, cycles %d, the clean run took %d", last.State, last.Cycle, last.Cycles, total)
	}
	if last.CheckpointCycle <= 0 || last.CheckpointCycle >= total {
		t.Errorf("last checkpoint at cycle %d of %d", last.CheckpointCycle, total)
	}
	if distinct < 3 {
		t.Errorf("saw %d distinct progress values, the test shows less than it says", distinct)
	}
}
