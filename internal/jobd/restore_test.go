package jobd

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/gpu"
)

// A failed restore must not poison the replay. Life 1 samples spans
// 1/64 and is drained onto a checkpoint; life 2, over the same output
// directory, samples 1/32 (a jobd restarted with another -trace-sample).
// The checkpoint's
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

// A checkpoint of another container version or model revision is
// refused, and the job replays. A drained job's checkpoint is swapped
// for its own bytes with the version word patched to 1 or 2 (the gzipped
// containers older binaries wrote), then for the same capture written at
// the next model revision, and each time the sweep is resubmitted over
// the drained directory: the job replays from cycle 0, no log line says
// it resumed, and its CSV is the clean run's.
func TestJobdOtherRevisionCheckpointReplays(t *testing.T) {
	total, cleanCSV := cleanRun(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()
	opts := Options{OutDir: dir, Workers: 1, Retries: -1, CheckpointInterval: total / 8, Logf: t.Logf}
	spec := SweepSpec{Name: "rev", Jobs: []JobSpec{testSpec("rev-1")}}
	s := New(opts)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "rev-1", StateRunning)
	for {
		if st, _ := s.JobStatus("rev-1"); st.Cycle > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.JobStatus("rev-1"); st.State != StatePreempted || st.CheckpointCycle <= 0 {
		t.Fatalf("drained job: state %s, checkpoint at cycle %d; want preempted on a checkpoint", st.State, st.CheckpointCycle)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	manifestPath := filepath.Join(dir, "rev-1-manifest.json")
	ckptPath := filepath.Join(dir, "checkpoints", "rev-1.ckpt")
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := chkpt.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	this, next := fmt.Sprintf("revision %d ", gpu.ModelRevision), fmt.Sprintf("revision %d ", gpu.ModelRevision+1)
	if !strings.HasPrefix(snap.Meta.Config, this) {
		t.Fatalf("fingerprint %q does not start with %q", snap.Meta.Config, this)
	}
	snap.Meta.Config = next + strings.TrimPrefix(snap.Meta.Config, this)
	var other bytes.Buffer
	if err := snap.Encode(&other); err != nil {
		t.Fatal(err)
	}
	swaps := map[string][]byte{"model " + next: other.Bytes()}
	for _, v := range []uint32{1, 2} {
		patched := slices.Clone(file)
		binary.LittleEndian.PutUint32(patched[len("ATTILACKPT"):], v)
		swaps[fmt.Sprintf("container version %d", v)] = patched
	}
	for what, swap := range swaps {
		if err := os.WriteFile(manifestPath, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptPath, swap, 0o644); err != nil {
			t.Fatal(err)
		}
		logf, lines := captureLog(t)
		opts.Logf = logf
		if _, err := RunSweep(ctx, opts, spec); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if i := lineWith(lines(), "resuming"); i >= 0 {
			t.Errorf("%s: the job resumed instead of replaying: %s", what, lines()[i])
		}
		if lineWith(lines(), "rev-1", "checkpoint unusable", "replaying") < 0 {
			t.Errorf("%s: no log line says the checkpoint was unusable and the job replayed", what)
		}
		if csv, err := os.ReadFile(filepath.Join(dir, "rev-1.csv")); err != nil || !bytes.Equal(csv, cleanCSV) {
			t.Errorf("%s: the replayed job's CSV differs from the clean run's (%v)", what, err)
		}
	}
}
