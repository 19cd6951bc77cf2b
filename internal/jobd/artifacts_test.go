package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"attila/internal/chaos"
	"attila/internal/core"
)

// TestFleetMetricsMergeAcrossJobs: a traced job that finishes leaves its
// sampled spans in <name>-spans.ndjson, and identical specs sample
// identical spans whichever worker ran them, so the dumps across a sweep
// are byte-identical. The fleet-wide histogram view this test once merged
// is gone; the span files are what jobs of a fleet now share. It runs
// under -race in make check, with two workers finishing traced jobs at
// once.
func TestFleetMetricsMergeAcrossJobs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dir := t.TempDir()
	traced := SweepSpec{Name: "traced", Jobs: []JobSpec{testSpec("traced-1"), testSpec("traced-2"), testSpec("traced-3")}}
	if _, err := RunSweep(ctx, Options{OutDir: dir, Workers: 2, Retries: -1, TraceSample: 4, TraceSeed: 1, Logf: t.Logf}, traced); err != nil {
		t.Fatal(err)
	}
	var dumps [][]byte
	for _, js := range traced.Jobs {
		dump, err := os.ReadFile(filepath.Join(dir, js.Name+"-spans.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if len(bytes.TrimSpace(dump)) == 0 {
			t.Fatalf("job %s: empty span dump", js.Name)
		}
		dumps = append(dumps, dump)
	}
	if !bytes.Equal(dumps[0], dumps[1]) || !bytes.Equal(dumps[1], dumps[2]) {
		t.Error("span dumps differ across identical jobs: sampling is not deterministic")
	}
}

// TestJobSpansWithoutTracing: a job run with tracing off finishes and
// leaves no span dump, not an empty one.
func TestJobSpansWithoutTracing(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dir := t.TempDir()
	plain := SweepSpec{Name: "plain", Jobs: []JobSpec{testSpec("plain-1")}}
	if _, err := RunSweep(ctx, Options{OutDir: dir, Workers: 1, Retries: -1, Logf: t.Logf}, plain); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "plain-1.csv")); err != nil {
		t.Fatalf("untraced job plain-1 left no CSV: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "plain-1-spans.ndjson")); !os.IsNotExist(err) {
		t.Errorf("untraced job plain-1: span dump stat = %v, want none", err)
	}
}

// TestJobArtifacts: a job that runs out of retries leaves the black box
// of its last attempt in <name>-crash.json, naming the box and cycle the
// fault hit; a job that finishes leaves none, and neither, untraced,
// leaves a span dump.
func TestJobArtifacts(t *testing.T) {
	total, _ := cleanRun(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// plain-1 finishes; crash-1 fails on the injected panic without a
	// retry.
	const box = "Streamer"
	at := total / 2
	plan, err := chaos.ParseServer(fmt.Sprintf("panic=crash-1@%d:%s", at, box))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 2, Retries: -1, Chaos: plan, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sw, err := s.SubmitSweep(SweepSpec{Name: "plain", Jobs: []JobSpec{testSpec("plain-1"), testSpec("crash-1")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.JobStatus("plain-1"); st.State != StateDone {
		t.Fatalf("plain-1: %s/%s, want done", st.State, st.FailKind)
	}
	if st, _ := s.JobStatus("crash-1"); st.State != StateFailed || st.FailKind != FailPanic || st.Attempts != 1 {
		t.Fatalf("crash-1: %s/%s after %d attempts, want failed/panic after 1", st.State, st.FailKind, st.Attempts)
	}
	for _, name := range []string{"plain-1", "crash-1"} {
		if _, err := os.Stat(filepath.Join(dir, name+"-spans.ndjson")); !os.IsNotExist(err) {
			t.Errorf("untraced job %s: span dump stat = %v, want none", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "plain-1-crash.json")); !os.IsNotExist(err) {
		t.Errorf("done job plain-1: crash report stat = %v, want none", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "crash-1-crash.json"))
	if err != nil {
		t.Fatal(err)
	}
	var crash core.CrashReport
	if err := json.Unmarshal(data, &crash); err != nil {
		t.Fatal(err)
	}
	if crash.Kind != "panic" || crash.Box != box || crash.Cycle < at {
		t.Errorf("crash report: kind %q box %q cycle %d, want a panic in %s at cycle >= %d", crash.Kind, crash.Box, crash.Cycle, box, at)
	}
}
