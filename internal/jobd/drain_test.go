package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"attila/internal/gpu"
	"attila/internal/workload"
)

// SIGTERM graceful drain (the satellite this test exists for): an
// in-flight sweep gets SIGTERM, the running job checkpoints at its
// next quiesced barrier and stamps its manifest "preempted" with its
// spec, and a restarted invocation resumes the sweep from the manifests
// to results byte-identical to a never-interrupted run.
func TestJobdSigtermDrainResume(t *testing.T) {
	total, cleanCSV := cleanRun(t)
	dir := t.TempDir()
	opts := Options{
		OutDir: dir, Workers: 1, Retries: -1,
		CheckpointInterval: total / 8,
		Logf:               t.Logf,
	}
	s := New(opts)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Name: "drain", Jobs: []JobSpec{testSpec("drain-1"), testSpec("drain-2")}}
	if _, err := s.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}

	// Wait until the first job is genuinely mid-run, then deliver a
	// real SIGTERM to this process — the same signal path the CLI's
	// serve/sweep modes drain on.
	waitState(t, s, "drain-1", StateRunning)
	for {
		if st, _ := s.JobStatus("drain-1"); st.Cycle > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sigCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM not delivered")
	}
	dctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	// The in-flight job parked resumable with a checkpoint…
	st, err := s.JobStatus("drain-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePreempted || !st.Resumable {
		t.Fatalf("drained job: state %s resumable %v, want preempted/resumable", st.State, st.Resumable)
	}
	if st.CheckpointCycle <= 0 {
		t.Error("drained job has no checkpoint cycle")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", "drain-1.ckpt")); err != nil {
		t.Errorf("drained job's checkpoint file missing: %v", err)
	}
	// …stamped its manifest with the drain state…
	var man jobManifest
	manData, err := os.ReadFile(filepath.Join(dir, "drain-1-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manData, &man); err != nil {
		t.Fatal(err)
	}
	if man.State != string(StatePreempted) {
		t.Errorf("manifest state %q, want %q", man.State, StatePreempted)
	}
	// …with the spec a restart resumes it by.
	if man.Spec == nil || man.Spec.Name != "drain-1" {
		t.Fatalf("drained job's manifest holds spec %+v, want drain-1's", man.Spec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same output directory: re-submitting the same
	// sweep reads the manifests, and the interrupted job resumes from
	// its checkpoint.
	s2 := New(opts)
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sw, err := s2.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("continuation resubmit failed: %v", err)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	if err := s2.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	final := s2.SweepStatus(sw)
	if final.Done != 2 {
		t.Fatalf("resumed sweep: %d done of %d (%+v)", final.Done, final.Total, final)
	}
	for _, name := range []string{"drain-1", "drain-2"} {
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv, cleanCSV) {
			t.Errorf("%s.csv differs from the uninterrupted run after drain+resume", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "drain-summary.txt")); err != nil {
		t.Errorf("sweep summary missing after resume: %v", err)
	}
}

// A drain requested once a job's command processor has taken its last
// command finds no safe point left to checkpoint at — the run takes no
// capture from then on — so the job finishes done, with the clean run's
// CSV, instead of parking preempted. The drain starts at the barrier of
// the cycle the last command is taken in, as measured on a bare run of
// the same job: the server's cycle hook holds the clock loop there until
// Drain has begun, so the job's own hook sees it at that very barrier.
func TestDrainAfterLastCommandFinishes(t *testing.T) {
	spec := testSpec("late")
	spec.Width, spec.Height, spec.Frames = 256, 192, 1
	cfg, err := ResolveConfig(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := gpu.New(cfg, spec.Width, spec.Height)
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := workload.Build(spec.Workload, pipe, workload.Params{
		Width: spec.Width, Height: spec.Height, Frames: spec.Frames, Aniso: spec.Aniso, Seed: spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	taken := pipe.Sim.Stats.Lookup("CP.commands")
	var last int64
	var n float64
	pipe.Sim.OnEndCycle(func(cycle int64) {
		if v := taken.Value(); v != n {
			n, last = v, cycle
		}
	})
	if err := pipe.Run(cmds, spec.MaxCycles); err != nil {
		t.Fatal(err)
	}
	if int(n) != len(cmds) {
		t.Fatalf("CP.commands reads %v of %d commands", n, len(cmds))
	}
	var cleanCSV bytes.Buffer
	if err := pipe.DumpCSV(&cleanCSV); err != nil {
		t.Fatal(err)
	}

	s := New(Options{OutDir: t.TempDir(), Workers: 1, Retries: -1, CheckpointInterval: pipe.Cycles() / 8, Logf: t.Logf})
	reached := make(chan struct{})
	s.cycleHook = func(_ string, cycle int64) {
		if cycle != last {
			return
		}
		close(reached)
		for !s.draining.Load() {
			time.Sleep(10 * time.Microsecond)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitSweep(SweepSpec{Name: "late", Jobs: []JobSpec{spec}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(time.Minute):
		t.Fatalf("the job never reached cycle %d", last)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := s.JobStatus("late")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.CheckpointCycle > last {
		t.Fatalf("drained after its last command: state %s, checkpoint at cycle %d; want done, nothing captured after cycle %d", st.State, st.CheckpointCycle, last)
	}
	csv, err := os.ReadFile(filepath.Join(s.opts.OutDir, "late.csv"))
	if err != nil || !bytes.Equal(csv, cleanCSV.Bytes()) {
		t.Errorf("late.csv differs from the clean run's (%v)", err)
	}
	t.Logf("last command taken at cycle %d of %d, drained there", last, pipe.Cycles())
}
