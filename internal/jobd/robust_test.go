package jobd

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"attila/internal/chaos"
)

// TestDispatchIsFIFO drives nextJobLocked directly: jobs dispatch in
// submission order, and a parked job requeues behind every job already
// waiting.
func TestDispatchIsFIFO(t *testing.T) {
	s := New(Options{OutDir: t.TempDir()})
	for _, name := range []string{"j1", "j2", "j3"} {
		s.submitLocked(&Job{Spec: testSpec(name)}, nil)
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

// One sweep across two server lives over one output directory. Life 1
// finishes r-done, fails r-fail fast on an injected panic and drains
// r-drain mid-run. Life 2 resubmits the sweep and reads each job's
// manifest: r-done is not run again and its files are untouched,
// r-fail stays failed, r-drain resumes from its checkpoint, and the
// summary is a one-shot run's. Life 3, over the finished sweep, runs
// nothing and only rewrites a lost summary. A resubmit with a changed
// spec is refused.
func TestJobdRestartFromManifests(t *testing.T) {
	total, cleanCSV := cleanRun(t)
	spec := SweepSpec{Name: "restart", Jobs: []JobSpec{testSpec("r-done"), testSpec("r-fail"), testSpec("r-drain")}}
	spec.Jobs[1].Retries = -1
	plan, err := chaos.ParseServer("panic=r-fail@" + strconv.FormatInt(total/2, 10))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	opts := Options{OutDir: t.TempDir(), Workers: 1, CheckpointInterval: total / 8, Chaos: plan}
	if _, err := RunSweep(ctx, opts, spec); err == nil {
		t.Fatal("one-shot run: r-fail did not fail")
	}
	oneShot, err := os.ReadFile(filepath.Join(opts.OutDir, "restart-summary.txt"))
	if err != nil {
		t.Fatal(err)
	}

	opts.OutDir, opts.Logf = t.TempDir(), t.Logf
	s := New(opts)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "r-drain", StateRunning)
	for {
		if st, _ := s.JobStatus("r-drain"); st.Cycle > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.JobStatus("r-drain"); st.State != StatePreempted {
		t.Fatalf("drained job: %+v, want preempted", st)
	}
	s.Close()
	doneFiles := func() [][]byte {
		var got [][]byte
		for _, f := range []string{"r-done.csv", "r-done-manifest.json"} {
			data, err := os.ReadFile(filepath.Join(opts.OutDir, f))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, data)
		}
		return got
	}
	before := doneFiles()

	logf, lines := captureLog(t)
	opts.Logf = logf
	s2 := New(opts)
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sw, err := s2.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	if i := lineWith(lines(), "r-done"); i >= 0 {
		t.Errorf("the done job ran again: %s", lines()[i])
	}
	if !slices.EqualFunc(doneFiles(), before, bytes.Equal) {
		t.Error("the done job's CSV or manifest changed")
	}
	if st, _ := s2.JobStatus("r-fail"); st.State != StateFailed || st.FailKind != FailPanic {
		t.Errorf("failed job after the restart: %s/%s, want failed/panic", st.State, st.FailKind)
	}
	if lineWith(lines(), "job r-drain resuming from checkpoint") < 0 {
		t.Errorf("the drained job did not resume from its checkpoint:\n%s", strings.Join(lines(), "\n"))
	}
	if csv, err := os.ReadFile(filepath.Join(opts.OutDir, "r-drain.csv")); err != nil || !bytes.Equal(csv, cleanCSV) {
		t.Errorf("r-drain.csv differs from the clean run (%v)", err)
	}
	if sum, err := os.ReadFile(filepath.Join(opts.OutDir, "restart-summary.txt")); err != nil || !bytes.Equal(sum, oneShot) {
		t.Errorf("summary after the restart (%v):\n%s\none-shot:\n%s", err, sum, oneShot)
	}

	s2.Close()
	os.Remove(filepath.Join(opts.OutDir, "restart-summary.txt"))
	logf, lines = captureLog(t)
	opts.Logf = logf
	if _, err := RunSweep(ctx, opts, spec); err == nil || lineWith(lines(), "job r-") >= 0 {
		t.Errorf("life 3 over the finished sweep: %v, want r-fail's failure and no job run:\n%s", err, strings.Join(lines(), "\n"))
	}
	if sum, err := os.ReadFile(filepath.Join(opts.OutDir, "restart-summary.txt")); err != nil || !bytes.Equal(sum, oneShot) {
		t.Errorf("life 3 did not rewrite the summary (%v)", err)
	}

	changed := spec
	changed.Jobs = slices.Clone(spec.Jobs)
	changed.Jobs[0].Frames = 2
	if _, err := New(opts).SubmitSweep(changed); !errors.Is(err, ErrDuplicate) {
		t.Errorf("resubmit with r-done's frames changed: %v, want ErrDuplicate", err)
	}
}

// Once Close returns, nothing the server started writes any more: a
// caller may remove OutDir, and it stays gone.
func TestClosedServerWritesNothing(t *testing.T) {
	for i := 0; i < 20; i++ {
		dir := filepath.Join(t.TempDir(), "out")
		s := New(Options{OutDir: dir, Workers: 1, Retries: -1})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitSweep(SweepSpec{Name: "gone", Jobs: []JobSpec{testSpec("gone-1")}}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatalf("run %d: something still writes after Close: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run %d: %s is back after Close and RemoveAll (%v)", i, dir, err)
		}
	}
}
