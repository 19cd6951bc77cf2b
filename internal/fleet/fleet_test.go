package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"attila/internal/chaos"
	"attila/internal/jobd"
)

const testTTL = 300 * time.Millisecond

// fleetSpec is the jobd test workload at a larger frame: multi-frame so
// quiesced checkpoints exist mid-run, small enough that a job finishes
// in well under a second, and large enough that it lasts several lease
// ticks (a third of testTTL each) — the fleet's faults are fired by a
// peer's tick looking at its running jobs, and a job that is over
// between two ticks is never seen running.
func fleetSpec(name string) jobd.JobSpec {
	return jobd.JobSpec{
		Name: name, Config: "baseline", Workload: "simple",
		Width: 320, Height: 240, Frames: 3, Aniso: 2, Seed: 1,
		MaxCycles: 200_000_000, TimeoutSec: -1,
	}
}

func fleetSweep(name string, jobs ...string) jobd.SweepSpec {
	spec := jobd.SweepSpec{Name: name}
	for _, j := range jobs {
		spec.Jobs = append(spec.Jobs, fleetSpec(j))
	}
	return spec
}

var (
	measureOnce   sync.Once
	measureCycles int64
	measureErr    error
)

// measuredCycles runs the test workload once per binary to place
// chaos fault cycles and checkpoint intervals.
func measuredCycles(t *testing.T) int64 {
	t.Helper()
	measureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fleet-measure-*")
		if err != nil {
			measureErr = err
			return
		}
		defer os.RemoveAll(dir)
		st, err := jobd.RunSweep(context.Background(),
			jobd.Options{OutDir: dir, Workers: 1, Retries: -1},
			fleetSweep("measure", "measure-1"))
		if err != nil {
			measureErr = err
			return
		}
		measureCycles = st.Jobs[0].Cycles
	})
	if measureErr != nil {
		t.Fatalf("reference measurement failed: %v", measureErr)
	}
	if measureCycles <= 0 {
		t.Fatal("reference measurement reported zero cycles")
	}
	return measureCycles
}

// cleanReference runs the sweep on a plain single-host jobd server and
// returns its output directory — the byte-identity reference every
// fleet convergence test compares against.
func cleanReference(t *testing.T, spec jobd.SweepSpec) string {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if _, err := jobd.RunSweep(ctx, jobd.Options{OutDir: dir, Workers: 2, Retries: -1}, spec); err != nil {
		t.Fatalf("clean single-host sweep failed: %v", err)
	}
	return dir
}

// assertConverged compares every job CSV and the sweep summary between
// the clean single-host run and the fleet's shared out/ directory.
func assertConverged(t *testing.T, cleanDir, fleetDir string, spec jobd.SweepSpec) {
	t.Helper()
	outDir := filepath.Join(fleetDir, "out")
	for _, js := range spec.Jobs {
		want, err := os.ReadFile(filepath.Join(cleanDir, js.Name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(outDir, js.Name+".csv"))
		if err != nil {
			t.Fatalf("fleet output for %s missing: %v", js.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.csv differs between fleet and clean single-host runs", js.Name)
		}
	}
	want, err := os.ReadFile(filepath.Join(cleanDir, spec.Name+"-summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(outDir, spec.Name+"-summary.txt"))
	if err != nil {
		t.Fatalf("fleet summary missing: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep summaries differ:\nclean:\n%s\nfleet:\n%s", want, got)
	}
}

func startPeer(t *testing.T, dir, id string, plan *chaos.ServerPlan, maxClaims int) *Peer {
	t.Helper()
	total := measuredCycles(t)
	p, err := NewPeer(Options{
		Dir: dir, PeerID: id, LeaseTTL: testTTL,
		Chaos: plan, MaxClaims: maxClaims,
		Jobd: jobd.Options{
			Workers: 1, Retries: -1,
			CheckpointInterval: total / 8,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFleetOfOneMatchesSingleHost: graceful degradation's base case —
// a fleet of one behaves exactly like a single-host job server, down
// to the output bytes.
func TestFleetOfOneMatchesSingleHost(t *testing.T) {
	spec := fleetSweep("solo", "solo-1", "solo-2")
	cleanDir := cleanReference(t, spec)

	dir := t.TempDir()
	p := startPeer(t, dir, "only", nil, 0)
	defer p.Close()
	if err := p.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := p.WaitSweep(ctx, "solo")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.State != string(jobd.StateDone) {
			t.Errorf("job %s: state %s, want done", r.Name, r.State)
		}
		if r.Epoch != 1 {
			t.Errorf("job %s: epoch %d, want 1 (nothing to steal in a fleet of one)", r.Name, r.Epoch)
		}
	}
	assertConverged(t, cleanDir, dir, spec)
}

// TestFleetSmokeTwoPeers is the make fleet-smoke scenario: two
// in-process peers split a sweep, one is killed mid-run, the survivor
// steals its leases and the sweep still converges to clean bytes.
func TestFleetSmokeTwoPeers(t *testing.T) {
	spec := fleetSweep("smoke", "smoke-1", "smoke-2", "smoke-3")
	cleanDir := cleanReference(t, spec)

	dir := t.TempDir()
	a := startPeer(t, dir, "peer-a", nil, 1)
	defer a.Close()
	b := startPeer(t, dir, "peer-b", nil, 1)
	defer b.Close()
	if err := a.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}

	// Kill b the moment it is actually simulating something.
	deadline := time.Now().Add(time.Minute)
	killed := false
	for !killed {
		for _, st := range b.Server().Jobs() {
			if st.State == jobd.StateRunning && st.Cycle > 0 {
				t.Logf("killing peer-b while it runs %s at cycle %d", st.Name, st.Cycle)
				b.Kill()
				killed = true
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("peer-b never started running a job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := a.WaitSweep(ctx, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.State != string(jobd.StateDone) {
			t.Errorf("job %s: state %s, want done", r.Name, r.State)
		}
	}
	assertConverged(t, cleanDir, dir, spec)
}

// TestFleetLoseAllButOne: a three-peer fleet loses two members
// mid-sweep; the last peer steals everything and finishes with clean
// bytes — the strongest graceful-degradation case short of total loss.
func TestFleetLoseAllButOne(t *testing.T) {
	spec := fleetSweep("last1", "last1-1", "last1-2", "last1-3")
	cleanDir := cleanReference(t, spec)

	dir := t.TempDir()
	a := startPeer(t, dir, "peer-a", nil, 1)
	defer a.Close()
	b := startPeer(t, dir, "peer-b", nil, 1)
	defer b.Close()
	c := startPeer(t, dir, "peer-c", nil, 1)
	defer c.Close()
	if err := a.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}

	// Let the sweep get going, then kill b and c outright.
	deadline := time.Now().Add(time.Minute)
	for {
		running := 0
		for _, p := range []*Peer{a, b, c} {
			for _, st := range p.Server().Jobs() {
				if st.State == jobd.StateRunning && st.Cycle > 0 {
					running++
				}
			}
		}
		if running >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never spread across the fleet")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Kill()
	c.Kill()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := a.WaitSweep(ctx, "last1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.State != string(jobd.StateDone) {
			t.Errorf("job %s: state %s, want done", r.Name, r.State)
		}
	}
	assertConverged(t, cleanDir, dir, spec)
}

// TestFleetChaosConvergence is the acceptance gate: a seeded 3-peer
// fleet run under the full fleet chaos plan — one host killed
// mid-job, another's control loop paused past the lease TTL, and one
// job's lease yanked out from under its owner — must converge to
// sweep outputs byte-identical to a clean single-host run.
func TestFleetChaosConvergence(t *testing.T) {
	total := measuredCycles(t)
	spec := fleetSweep("conv3", "conv3-1", "conv3-2", "conv3-3", "conv3-4")
	cleanDir := cleanReference(t, spec)

	mid := strconv.FormatInt(total/3, 10)
	plan, err := chaos.ParseServer(
		"seed=11,killhost=peer-b@" + mid +
			",pauseheart=peer-c@" + mid + ":900ms" +
			",leaseyank=conv3-4")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	a := startPeer(t, dir, "peer-a", plan, 1)
	defer a.Close()
	b := startPeer(t, dir, "peer-b", plan, 1)
	defer b.Close()
	c := startPeer(t, dir, "peer-c", plan, 1)
	defer c.Close()
	if err := a.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := a.WaitSweep(ctx, "conv3")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.State != string(jobd.StateDone) {
			t.Errorf("job %s: state %s, want done (peer %s, epoch %d)", r.Name, r.State, r.Peer, r.Epoch)
		}
	}

	// The faults must actually have fired; a run where nothing went
	// wrong proves nothing.
	if !b.Server().Killed() {
		t.Error("killhost never fired: peer-b survived the whole sweep")
	}
	c.mu.Lock()
	paused := c.pauseFired
	c.mu.Unlock()
	if !paused {
		t.Error("pauseheart never fired on peer-c")
	}
	yanked := false
	for _, p := range []*Peer{a, b, c} {
		p.mu.Lock()
		yanked = yanked || p.yankFired
		p.mu.Unlock()
	}
	if !yanked {
		t.Error("leaseyank never fired for conv3-4")
	}
	// At least one job must have changed hands (epoch > 1): the kill
	// guarantees peer-b's claim was stolen.
	stolen := 0
	for _, r := range res.Rows {
		if r.Epoch > 1 {
			stolen++
		}
	}
	if stolen == 0 {
		t.Error("no job was ever stolen despite a killed host")
	}

	assertConverged(t, cleanDir, dir, spec)
}
