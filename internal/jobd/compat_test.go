package jobd

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/obsv"
)

// TestOldFilesWithTenantKeysLoad pins what still reads of the files
// older binaries wrote: every reader decodes with plain encoding/json,
// which ignores unknown keys. Two fixture sets, each a job's manifest
// and checkpoint, written by an older binary:
//
//   - testdata/parent-drained/: compat-1 as a drained server preempted
//     it, from when jobs carried "tenant" and "priority" keys.
//   - testdata/parent-fleet/: compat-1 as a fleet peer of the last
//     binary that had one (experiments -fleet-dir) preempted it. Its
//     manifest carries the since-deleted fleetPeer and leaseEpoch keys,
//     and its checkpoint is a version 2 container whose epoch slot
//     holds lease epoch 1.
//
// A sweep file whose job carries "tenant", "priority" and "resume"
// still parses and normalizes. The old manifests hold no spec, so
// resubmitting compat-1 over the drained server's directory replays it
// from the start, to the clean run's CSV.
func TestOldFilesWithTenantKeysLoad(t *testing.T) {
	_, cleanCSV := cleanRun(t)

	for _, set := range []string{"parent-drained", "parent-fleet"} {
		m, err := obsv.LoadManifest(filepath.Join("testdata", set, "compat-1-manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if m.State != string(StatePreempted) || m.Config != "baseline" || m.LastCheckpoint != 20018 {
			t.Errorf("%s: old manifest decoded as state %q config %q checkpoint %d",
				set, m.State, m.Config, m.LastCheckpoint)
		}
		path := filepath.Join("testdata", set, "checkpoints", "compat-1.ckpt")
		snap, err := chkpt.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		head, _ := os.ReadFile(path)
		if v := binary.LittleEndian.Uint32(head[len("ATTILACKPT"):]); v != 2 || snap.Meta.Cycle != 20019 {
			t.Errorf("%s: checkpoint version %d at cycle %d, want version 2 at 20019", set, v, snap.Meta.Cycle)
		}
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

	dir := t.TempDir()
	for _, f := range []string{"compat-1-manifest.json", "checkpoints/compat-1.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-drained", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	logf, lines := captureLog(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := RunSweep(ctx, Options{OutDir: dir, Workers: 1, Retries: -1, Logf: logf},
		SweepSpec{Name: "compat", Jobs: []JobSpec{testSpec("compat-1")}}); err != nil {
		t.Fatal(err)
	}
	if i := lineWith(lines(), "resuming from checkpoint"); i >= 0 {
		t.Errorf("a job whose manifest has no spec resumed instead of replaying: %s", lines()[i])
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "compat-1.csv")); err != nil || !bytes.Equal(csv, cleanCSV) {
		t.Errorf("compat-1 replayed over the old directory: CSV differs from the clean run (%v)", err)
	}
}

// Older binaries kept a queue file, jobd-state.json, in OutDir beside
// the manifests. Nothing reads it: a resubmit over such a directory
// removes it, says so in one log line, and leaves the jobs' CSVs and
// the sweep summary as they were.
func TestResubmitRemovesStaleStateFile(t *testing.T) {
	_, cleanCSV := cleanRun(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	opts := Options{OutDir: t.TempDir(), Workers: 1, Retries: -1}
	spec := SweepSpec{Name: "stale", Jobs: []JobSpec{testSpec("stale-1"), testSpec("stale-2")}}
	if _, err := RunSweep(ctx, opts, spec); err != nil {
		t.Fatal(err)
	}
	files := func() (got [][]byte) {
		for _, f := range []string{"stale-1.csv", "stale-2.csv", "stale-summary.txt"} {
			data, err := os.ReadFile(filepath.Join(opts.OutDir, f))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, data)
		}
		return got
	}
	before := files()
	if !bytes.Equal(before[0], cleanCSV) {
		t.Fatal("stale-1's CSV differs from the clean run's")
	}
	state := filepath.Join(opts.OutDir, "jobd-state.json")
	if err := os.WriteFile(state, []byte(`{"jobs": [{"spec": {"name": "stale-1"}, "state": "preempted"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	logf, lines := captureLog(t)
	opts.Logf = logf
	if _, err := RunSweep(ctx, opts, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("jobd-state.json is still there after the resubmit (%v)", err)
	}
	if n := len(slices.DeleteFunc(lines(), func(l string) bool { return !strings.Contains(l, "jobd-state.json") })); n != 1 {
		t.Errorf("%d log lines name jobd-state.json, want 1: %q", n, lines())
	}
	if !slices.EqualFunc(files(), before, bytes.Equal) {
		t.Error("the resubmit changed the jobs' CSVs or the sweep summary")
	}
}
