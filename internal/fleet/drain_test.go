package fleet

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"attila/internal/jobd"
)

// drainTTL is roomier than testTTL: a drained peer's leases are taken
// only after they have gone unrenewed for a full TTL, and the takeover
// time the drain test logs is read against it.
const drainTTL = 600 * time.Millisecond

func startDrainPeer(t *testing.T, dir, id string) *Peer {
	t.Helper()
	total := measuredCycles(t)
	p, err := NewPeer(Options{
		Dir: dir, PeerID: id, LeaseTTL: drainTTL, MaxClaims: 1,
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

// noHandoffFiles fails the test if leases/ holds a drain-handoff record:
// a drain leaves its leases to expire and writes nothing else.
func noHandoffFiles(t *testing.T, dir string) {
	t.Helper()
	found, err := filepath.Glob(filepath.Join(dir, "leases", "*.handoff"))
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Fatalf("drain wrote handoff records: %v", found)
	}
}

// TestFleetDrainIsStolen is the graceful-drain acceptance gate: a
// 3-peer fleet mid-sweep loses one member to a deliberate drain, and
// the drained peer's job must change hands the way a dead peer's does —
// its lease stolen at the next epoch once it has gone a TTL unrenewed —
// with the sweep still converging to bytes identical to a clean
// single-host run.
func TestFleetDrainIsStolen(t *testing.T) {
	spec := fleetSweep("drain", "drain-1", "drain-2", "drain-3")
	cleanDir := cleanReference(t, spec)

	dir := t.TempDir()
	a := startDrainPeer(t, dir, "peer-a")
	defer a.Close()
	b := startDrainPeer(t, dir, "peer-b")
	c := startDrainPeer(t, dir, "peer-c")
	defer c.Close()
	if err := a.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(time.Minute)
	var drainedJob string
	for drainedJob == "" {
		for _, st := range b.Server().Jobs() {
			if st.State == jobd.StateRunning && st.Cycle > 0 {
				drainedJob = st.Name
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("peer-b never got mid-job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before, err := readLease(b.leasePath(drainedJob))
	if err != nil {
		t.Fatal(err)
	}
	if before.Owner != "peer-b" {
		t.Fatalf("lease for %s owned by %s, want peer-b", drainedJob, before.Owner)
	}

	// Drain: local checkpoint barrier, then the loop stops. The takeover
	// clock starts when Drain returns, the moment peer-b stops renewing.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	if err := b.Drain(dctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	dcancel()
	drained := time.Now()

	// The gate is the causal fact, a steal at epoch+1, not a stopwatch:
	// the takeover time (one TTL to one TTL plus a tick on an idle host)
	// is only logged.
	var after lease
	for {
		noHandoffFiles(t, dir)
		after, err = readLease(b.leasePath(drainedJob))
		if err == nil && after.Owner != "peer-b" {
			break
		}
		if time.Since(drained) >= time.Minute {
			t.Fatalf("lease for %s still %+v a minute after the drain; never stolen", drainedJob, after)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("takeover of %s by %s in %v (TTL %v)", drainedJob, after.Owner, time.Since(drained), drainTTL)
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("takeover epoch = %d, want %d (fencing chain must advance by exactly one)", after.Epoch, before.Epoch+1)
	}
	taker := a
	if after.Owner == "peer-c" {
		taker = c
	}
	// The lease file changes before the taker counts the steal. peer-b
	// held one job, so that is the only steal there is.
	for taker.ctrSteals.Load() == 0 && time.Since(drained) < time.Minute {
		time.Sleep(time.Millisecond)
	}
	if stolen := taker.ctrSteals.Load(); stolen != 1 {
		t.Fatalf("%s took the lease but counted %d steals (a=%d c=%d)", after.Owner, stolen,
			a.ctrSteals.Load(), c.ctrSteals.Load())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := a.WaitSweep(ctx, "drain")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.State != string(jobd.StateDone) {
			t.Errorf("job %s: state %s, want done (peer %s, epoch %d)", r.Name, r.State, r.Peer, r.Epoch)
		}
	}
	// The drained job's result must come from the taker at the
	// incremented epoch: proof the run resumed under the new fence, and
	// (via assertConverged) produced byte-identical output anyway.
	for _, r := range res.Rows {
		if r.Name != drainedJob {
			continue
		}
		if r.Peer != after.Owner {
			t.Errorf("drained job finished by %s, want taker %s", r.Peer, after.Owner)
		}
		if r.Epoch != before.Epoch+1 {
			t.Errorf("drained job result epoch = %d, want %d", r.Epoch, before.Epoch+1)
		}
	}
	noHandoffFiles(t, dir)
	assertConverged(t, cleanDir, dir, spec)
}

// TestRestartedPeerStealsItsOwnLease: a fleet of one is closed mid-job,
// past a checkpoint, and restarted under the same peer ID. The lease
// still names that ID, but the new process does not hold it, and nobody
// else will ever steal it; the restarted peer must take it at the next
// epoch itself and finish the sweep with the bytes of a clean run.
func TestRestartedPeerStealsItsOwnLease(t *testing.T) {
	spec := fleetSweep("restart", "restart-1")
	cleanDir := cleanReference(t, spec)

	dir := t.TempDir()
	first := startPeer(t, dir, "solo", nil, 0)
	if err := first.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := first.Server().JobStatus("restart-1")
		if err == nil && st.State == jobd.StateRunning && st.CheckpointCycle > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("solo never checkpointed restart-1 (status %+v, err %v)", st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := readLease(first.leasePath("restart-1"))
	if err != nil {
		t.Fatal(err)
	}
	if before.Owner != "solo" || before.Epoch != 1 {
		t.Fatalf("lease after close = %+v, want solo@1", before)
	}

	second := startPeer(t, dir, "solo", nil, 0)
	defer second.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := second.WaitSweep(ctx, "restart")
	if err != nil {
		t.Fatalf("restarted peer never finished its own sweep: %v", err)
	}
	for _, r := range res.Rows {
		if r.State != string(jobd.StateDone) || r.Epoch != 2 || r.Peer != "solo" {
			t.Errorf("job %s: state %s, peer %s, epoch %d; want done by solo at epoch 2", r.Name, r.State, r.Peer, r.Epoch)
		}
	}
	assertConverged(t, cleanDir, dir, spec)
}
