package jobd

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// captureLog returns a Logf that logs through t and keeps each line,
// and a function that returns the lines kept so far.
func captureLog(t *testing.T) (logf func(string, ...any), lines func() []string) {
	var mu sync.Mutex
	var kept []string
	logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		mu.Lock()
		kept = append(kept, line)
		mu.Unlock()
	}
	return logf, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(kept)
	}
}

// lineWith is the index of the first line containing every one of
// parts, or -1.
func lineWith(lines []string, parts ...string) int {
	return slices.IndexFunc(lines, func(l string) bool {
		return !slices.ContainsFunc(parts, func(p string) bool { return !strings.Contains(l, p) })
	})
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

// With Workers unset, RunSweep runs as many workers as Options.norm
// gives, half the CPUs: under GOMAXPROCS(4) a short job listed after a
// long one runs beside it and finishes first. One worker would run them
// in order.
func TestRunSweepWorkersDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	long, short := testSpec("long"), testSpec("short")
	long.Width, long.Height = 512, 384
	short.Width, short.Height, short.Frames = 32, 24, 1
	var mu sync.Mutex
	var done []string
	st, err := RunSweep(context.Background(), Options{OutDir: t.TempDir(), Retries: -1,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			if name, ok := strings.CutPrefix(line, "jobd: job "); ok && strings.Contains(name, " done: ") {
				mu.Lock()
				done = append(done, strings.Fields(name)[0])
				mu.Unlock()
			}
		}}, SweepSpec{Name: "workers", Jobs: []JobSpec{long, short}})
	if err != nil {
		t.Fatal(err)
	}
	if lc, sc := st.Jobs[0].Cycles, st.Jobs[1].Cycles; lc < 20*sc {
		t.Fatalf("long job %d cycles, short %d: the test needs >= 20x", lc, sc)
	}
	if got := strings.Join(done, ","); got != "short,long" {
		t.Errorf("jobs finished in order %s, want short,long: the default pool ran one worker", got)
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
		CkptDir: filepath.Join(base, "ckpt"),
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
	if _, err := s.SubmitSweep(SweepSpec{Name: "disk", Jobs: []JobSpec{testSpec("disk-1")}}); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, "disk-1", "")
	if st.State != StateFailed || st.FailKind != FailDisk {
		t.Fatalf("job state %s kind %s, want failed/disk", st.State, st.FailKind)
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
	if _, err := s.SubmitSweep(SweepSpec{Name: "watch", Jobs: []JobSpec{testSpec("watched")}}); err != nil {
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
