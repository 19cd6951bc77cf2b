package jobd

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// A failed restore must not poison the replay. Life 1 samples spans
// 1/64 and is drained onto a checkpoint; life 2, over the same output
// directory, samples 1/32 (a jobd restarted with another -trace-sample,
// or a fleet peer with another rate stealing the job). The checkpoint's
// span section — the last one applied — is refused, by which time the
// machine already sits at the checkpoint's cycle. The job must still
// finish with the cycle count and stats CSV of a clean one-shot run,
// because the replay starts on a fresh machine, and the log must say
// that the checkpoint was unusable.
func TestJobdUnusableCheckpointReplays(t *testing.T) {
	// Longer than testSpec so the drain lands mid-run with room to
	// spare.
	job := testSpec("mixed-1")
	job.Frames = 6
	spec := SweepSpec{Name: "mixed", Jobs: []JobSpec{job}}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dirClean := t.TempDir()
	clean, err := RunSweep(ctx, Options{OutDir: dirClean, Workers: 1, Retries: -1}, spec)
	if err != nil {
		t.Fatalf("clean one-shot run failed: %v", err)
	}
	cleanCSV, err := os.ReadFile(filepath.Join(dirClean, "mixed-1.csv"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := Options{
		OutDir: dir, Workers: 1, Retries: -1,
		CheckpointInterval: clean.Jobs[0].Cycles / 8,
		TraceSample:        64, TraceSeed: 1,
		Logf: t.Logf,
	}
	s := New(opts)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "mixed-1", StateRunning)
	for {
		if st, _ := s.JobStatus("mixed-1"); st.Cycle > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := s.JobStatus("mixed-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePreempted || !st.Resumable || st.CheckpointCycle <= 0 {
		t.Fatalf("drained job: state %s resumable %v checkpoint %d, want preempted on a checkpoint",
			st.State, st.Resumable, st.CheckpointCycle)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logged []string
	opts.TraceSample = 32
	opts.Logf = func(format string, args ...any) {
		t.Logf(format, args...)
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s2 := New(opts)
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sw, err := s2.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("continuation resubmit failed: %v", err)
	}
	if err := s2.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	final := s2.SweepStatus(sw)
	if final.Done != 1 {
		t.Fatalf("second life: %+v", final)
	}
	if got := final.Jobs[0].Cycles; got != clean.Jobs[0].Cycles {
		t.Errorf("job finished after %d cycles, a clean run takes %d (checkpoint was at %d)",
			got, clean.Jobs[0].Cycles, st.CheckpointCycle)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "mixed-1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, cleanCSV) {
		t.Error("stats CSV differs from the clean run after the refused restore")
	}
	mu.Lock()
	defer mu.Unlock()
	said := false
	for _, line := range logged {
		if strings.Contains(line, "mixed-1") && strings.Contains(line, "checkpoint unusable") && strings.Contains(line, "replaying") {
			said = true
		}
		if strings.Contains(line, "resuming from checkpoint") {
			t.Errorf("log claims a resume the machine did not do: %s", line)
		}
	}
	if !said {
		t.Errorf("no log line says the checkpoint was unusable and the run replayed:\n%s", strings.Join(logged, "\n"))
	}
}
