package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"attila/internal/chaos"
)

// The acceptance gate: a server battered by the seeded chaos plan —
// a worker killed mid-run, a box panic injected into another job, and
// the output directory yanked mid-sweep — must converge to a sweep
// summary and per-run stats CSVs byte-identical to a clean one-shot
// run of the same sweep. The log must name each fault's cause, and the
// convergence pass must put back what the yank took.
func TestJobdChaosConvergence(t *testing.T) {
	total, _ := cleanRun(t)
	spec := SweepSpec{Name: "conv", Jobs: []JobSpec{
		testSpec("conv-1"), testSpec("conv-2"), testSpec("conv-3"),
	}}
	// Chaos jobs inherit the server's retry budget.
	for i := range spec.Jobs {
		spec.Jobs[i].Retries = 0
	}

	// Clean reference: the one-shot CLI path, no faults.
	dirClean := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if _, err := RunSweep(ctx, Options{OutDir: dirClean, Workers: 1, Retries: -1}, spec); err != nil {
		t.Fatalf("clean one-shot sweep failed: %v", err)
	}

	// Chaos run: kill conv-1's worker and panic a box inside conv-2
	// halfway through their first attempts; yank the whole output
	// directory when conv-1 first completes.
	mid := strconv.FormatInt(total/2, 10)
	plan, err := chaos.ParseServer(
		"seed=7,kill=conv-1@" + mid + ",panic=conv-2@" + mid + ",yank=conv-1")
	if err != nil {
		t.Fatal(err)
	}
	dirChaos := t.TempDir()
	logf, lines := captureLog(t)
	s := New(Options{
		OutDir: dirChaos, Workers: 2, Retries: 3,
		RetryBackoff: time.Millisecond, RetryBackoffMax: 5 * time.Millisecond,
		CheckpointInterval: total / 8,
		Chaos:              plan,
		Logf:               logf,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sw, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}

	st := s.SweepStatus(sw)
	if st.Done != 3 {
		t.Fatalf("chaos sweep: %d done of %d: %+v", st.Done, st.Total, st.Jobs)
	}
	for _, j := range st.Jobs {
		switch j.Name {
		case "conv-1", "conv-2":
			if j.Attempts < 2 {
				t.Errorf("%s took %d attempts, want >= 2 (its fault should have fired)", j.Name, j.Attempts)
			}
		}
	}
	logged := lines()
	for _, cause := range [][]string{
		{"job conv-1 attempt 1 failed (killed)"},
		{"job conv-2 attempt 1 failed (panic)", "CommandProcessor"},
	} {
		if lineWith(logged, cause...) < 0 {
			t.Errorf("no log line says %q", cause)
		}
	}
	yank := lineWith(logged, "chaos: yanking output directory")
	if yank < 0 || lineWith(logged[yank:], "restored missing/damaged", "conv-1.csv") < 0 {
		t.Errorf("no restore of conv-1.csv follows the yank (yank at line %d):\n%s", yank, strings.Join(logged, "\n"))
	}
	var man jobManifest
	if data, err := os.ReadFile(filepath.Join(dirChaos, "conv-1-manifest.json")); err != nil || json.Unmarshal(data, &man) != nil {
		t.Errorf("conv-1's manifest unreadable after the yank: %v", err)
	} else if norm, _ := NormalizeSweep(spec); man.State != string(StateDone) || man.Spec == nil || *man.Spec != norm[0] {
		t.Errorf("conv-1's manifest after the yank: state %q spec %+v, want done with its spec", man.State, man.Spec)
	}

	// Convergence: every output byte-identical to the clean run.
	for _, name := range []string{"conv-1", "conv-2", "conv-3"} {
		clean, err := os.ReadFile(filepath.Join(dirClean, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dirChaos, name+".csv"))
		if err != nil {
			t.Fatalf("chaos run output missing: %v", err)
		}
		if !bytes.Equal(got, clean) {
			t.Errorf("%s.csv differs between chaos and clean runs", name)
		}
	}
	cleanSum, err := os.ReadFile(filepath.Join(dirClean, "conv-summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	chaosSum, err := os.ReadFile(filepath.Join(dirChaos, "conv-summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chaosSum, cleanSum) {
		t.Errorf("sweep summaries differ:\nclean:\n%s\nchaos:\n%s", cleanSum, chaosSum)
	}
}
