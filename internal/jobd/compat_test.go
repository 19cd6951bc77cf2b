package jobd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"attila/internal/obsv"
)

// TestOldFilesWithTenantKeysLoad pins that files older binaries wrote
// still load, because every reader decodes with plain encoding/json,
// which ignores unknown keys. Two fixture sets, each written by an
// older binary:
//
//   - testdata/parent-drained/: a drained server's state file from when
//     jobs carried "tenant" and "priority" keys (one job preempted with
//     a checkpoint, one queued), and the preempted job's manifest.
//   - testdata/parent-fleet/: written by a fleet peer of the last binary
//     that had one (experiments -fleet-dir), SIGKILLed right after it
//     preempted compat-1. Its per-peer state file, renamed from
//     jobd-state-<peer>.json, lists compat-1 running and compat-long
//     queued, outside any sweep. compat-1's checkpoint is a version 2
//     container whose epoch slot holds lease epoch 1, and its manifest
//     carries the since-deleted fleetPeer and leaseEpoch keys.
//
// Besides them, a state file written inline as a binary with
// preemption wrote it: a drained job that had been preempted twice
// carries "preemptions": 2. And a sweep file whose job carries
// "tenant", "priority" and "resume" still parses and normalizes.
//
// A "lost" job cannot appear in a jobd-state.json: only fleet peers
// marked jobs lost, and they wrote jobd-state-<peer>.json, which no
// binary reads any more. So no reader for that state is kept.
func TestOldFilesWithTenantKeysLoad(t *testing.T) {
	_, cleanCSV := cleanRun(t)

	dir := copyFixture(t, "parent-drained")
	s := New(Options{OutDir: dir, Workers: 1, Retries: -1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"compat-1", "compat-2"} {
		if st := waitState(t, s, name, ""); st.State != StateDone {
			t.Fatalf("resumed job: %+v, want done", st)
		}
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv, cleanCSV) {
			t.Errorf("%s.csv differs from the clean run", name)
		}
	}

	m, err := obsv.LoadManifest("testdata/parent-drained/compat-1-manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.State != string(StatePreempted) || m.Config != "baseline" || m.LastCheckpoint <= 0 {
		t.Errorf("old manifest decoded as state %q config %q checkpoint %d",
			m.State, m.Config, m.LastCheckpoint)
	}

	// The drained, twice-preempted job resumes from its checkpoint to
	// the clean CSV.
	dir = copyFixture(t, "parent-drained")
	state := `{"nextId": 2, "sweeps": ["old"], "jobs": [{"spec": {"name": "compat-1",
		"config": "baseline", "workload": "simple", "width": 96, "height": 64, "frames": 3,
		"aniso": 2, "seed": 1, "maxCycles": 200000000, "timeoutSec": -1},
		"state": "preempted", "attempts": 0, "preemptions": 2, "resumable": true, "sweep": "old"}]}`
	if err := os.WriteFile(filepath.Join(dir, "jobd-state.json"), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	ps := New(Options{OutDir: dir, Workers: 1, Retries: -1, Logf: t.Logf})
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if st := waitState(t, ps, "compat-1", ""); st.State != StateDone || st.Sweep != "old" {
		t.Fatalf("twice-preempted job: %+v, want done in sweep old", st)
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "compat-1.csv")); err != nil || !bytes.Equal(csv, cleanCSV) {
		t.Errorf("twice-preempted job's CSV differs from the clean run (%v)", err)
	}

	// The fleet peer's files: compat-1 resumes from the epoch-stamped
	// checkpoint to the clean CSV.
	dir = copyFixture(t, "parent-fleet")
	var mu sync.Mutex
	var logged []string
	fs := New(Options{OutDir: dir, Workers: 1, Retries: -1, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err := fs.Start(); err != nil {
		t.Fatal(err)
	}
	// compat-long, a 320x240 ut2004 run, only kept the peer's one worker
	// busy while the kill landed; this test does not need its result,
	// and Close stops it.
	defer fs.Close()
	if st := waitState(t, fs, "compat-1", ""); st.State != StateDone {
		t.Fatalf("fleet peer's job: %+v, want done", st)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "compat-1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, cleanCSV) {
		t.Error("compat-1.csv resumed from the fleet peer's checkpoint differs from the clean run")
	}
	mu.Lock()
	resumed := slices.ContainsFunc(logged, func(line string) bool {
		return strings.Contains(line, "job compat-1 resuming from checkpoint at cycle 20019")
	})
	mu.Unlock()
	if !resumed {
		t.Errorf("compat-1 did not resume from the fleet peer's checkpoint at cycle 20019:\n%s", strings.Join(logged, "\n"))
	}
	m, err = obsv.LoadManifest("testdata/parent-fleet/compat-1-manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.State != string(StatePreempted) || m.Config != "baseline" || m.LastCheckpoint != 20018 {
		t.Errorf("fleet peer's manifest decoded as state %q config %q checkpoint %d",
			m.State, m.Config, m.LastCheckpoint)
	}

	// A sweep file whose job carries the keys parses, and the keys are
	// ignored.
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
		t.Fatalf("sweep file with tenant/priority/resume keys: %+v, %v", jobs, err)
	}
}

// copyFixture copies a testdata fixture set's state file and checkpoints
// into a fresh output directory (its manifests are read in place).
func copyFixture(t *testing.T, set string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"jobd-state.json", "checkpoints/compat-1.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata", set, f))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
