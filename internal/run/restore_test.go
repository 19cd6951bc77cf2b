package run

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"attila/internal/chkpt"
	"attila/internal/gpu"
	"attila/internal/workload"
)

func testSpec() Spec {
	return Spec{
		Config: testConfig(0), Width: testW, Height: testH,
		Source: Workload(testWorkload, testParams), MaxCycles: testBudget,
	}
}

// spanlessCheckpoint runs the test workload without span tracing until
// its first capture and returns the checkpoint file: a valid checkpoint
// of this workload and configuration that a traced run cannot restore,
// because its obsv.Spans section — the last one applied — is missing.
func spanlessCheckpoint(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spanless.ckpt")
	spec := testSpec()
	spec.Checkpoint = Checkpoint{Path: path, Interval: runLength(t) / 8}
	s, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Pipe.Sim.OnEndCycle(func(int64) {
		if s.Engine.Count() > 0 {
			s.Pipe.Sim.Stop()
		}
	})
	if err := s.Run(context.Background()); err == nil || s.Engine.Count() == 0 {
		t.Fatalf("run ended (%v) with %d checkpoints, want a stop after the first", err, s.Engine.Count())
	}
	return path
}

func csvOf(t *testing.T, p *gpu.Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A restore that fails must not poison the replay. chkpt.Restore
// applies sections in order and is not atomic: by the time the missing
// span section is noticed the machine already sits at the checkpoint's
// cycle with its memory and caches. The lenient callers used to fall
// through to RunContext on that same pipeline (the model below, which
// is jobd.attempt's sequence at 0c54069); StartOrReplay starts over on a
// fresh machine.
func TestUnusableCheckpointReplaysOnFreshMachine(t *testing.T) {
	ckpt := spanlessCheckpoint(t)
	traced := testSpec()
	traced.Spans = testSpans()

	clean, err := Start(traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantCycles, wantCSV := clean.Pipe.Cycles(), csvOf(t, clean.Pipe)

	// What the parent did: one pipeline for the failed restore and the
	// "replay".
	pipe, err := gpu.New(testConfig(0), testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := workload.Build(testWorkload, pipe, testParams)
	if err != nil {
		t.Fatal(err)
	}
	col := pipe.EnableSpanTracing(testSpans())
	snap, err := chkpt.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RestoreCheckpoint(snap, cmds, col); err == nil {
		t.Fatal("a traced machine restored a checkpoint with no span section")
	}
	if err := pipe.RunContext(context.Background(), cmds, testBudget); err != nil {
		t.Fatal(err)
	}
	if pipe.Cycles() == wantCycles {
		t.Fatalf("the shared-pipeline replay ended at the clean run's %d cycles: this test no longer shows the bug", wantCycles)
	}
	t.Logf("checkpoint at cycle %d; clean run %d cycles; replay on the half-restored machine %d cycles",
		snap.Meta.Cycle, wantCycles, pipe.Cycles())

	var logged []string
	traced.RestoreFrom = ckpt
	s, err := StartOrReplay(traced, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], `missing section "obsv.Spans"`) || !strings.Contains(logged[0], "replaying") {
		t.Errorf("log = %q, want one line naming the missing section and the replay", logged)
	}
	if s.RestoredCycle != 0 {
		t.Errorf("session claims to resume at cycle %d after a refused restore", s.RestoredCycle)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Pipe.Cycles() != wantCycles {
		t.Errorf("replay took %d cycles, clean run %d", s.Pipe.Cycles(), wantCycles)
	}
	if !bytes.Equal(csvOf(t, s.Pipe), wantCSV) {
		t.Error("replay's stats CSV differs from the clean run")
	}
}

// Where the restore is required (attilasim -restore), a refusal is a
// typed *RestoreError with no session — nothing to run by mistake — and
// the checkpoint file is left as it was.
func TestRestoreErrorIsTyped(t *testing.T) {
	ckpt := spanlessCheckpoint(t)
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*Spec)
		is   error
		msg  string
	}{
		{"missing file", func(s *Spec) { s.RestoreFrom = ckpt + ".gone" }, fs.ErrNotExist, "restore " + ckpt + ".gone: "},
		{"missing section", func(s *Spec) { s.Spans = testSpans() }, chkpt.ErrMismatch, `missing section "obsv.Spans"`},
		{"other workload", func(s *Spec) {
			s.Source = Commands(nil, "another stream")
		}, nil, `checkpoint is for workload "simple", this run is "another stream"`},
		{"other configuration", func(s *Spec) { s.Config.NumShaders++ }, chkpt.ErrMismatch, "checkpoint is for configuration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			spec.RestoreFrom = ckpt
			spec.Checkpoint = Checkpoint{Path: ckpt, Interval: 1}
			tc.edit(&spec)
			s, err := Start(spec)
			var re *RestoreError
			if !errors.As(err, &re) || s != nil {
				t.Fatalf("Start = (%v, %v), want no session and a *RestoreError", s, err)
			}
			if re.Path != spec.RestoreFrom {
				t.Errorf("RestoreError.Path = %q, want %q", re.Path, spec.RestoreFrom)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %v does not wrap %v", err, tc.is)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q lacks %q", err, tc.msg)
			}
		})
	}
	if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(before, after) {
		t.Errorf("a refused restore touched the checkpoint file (err %v)", err)
	}

	// The same file restores where it belongs.
	spec := testSpec()
	spec.RestoreFrom = ckpt
	s, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.RestoredCycle <= 0 {
		t.Errorf("restored cycle %d", s.RestoredCycle)
	}
	if err := s.Run(context.Background()); err != nil || s.Pipe.Cycles() != runLength(t) {
		t.Errorf("resumed run: %v after %d cycles, want a clean %d", err, s.Pipe.Cycles(), runLength(t))
	}
}
