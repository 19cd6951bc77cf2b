package fleet

import (
	"context"
	"os"
	"testing"
	"time"

	"attila/internal/jobd"
)

// drainTTL is deliberately larger than testTTL: a roomier TTL
// separates the two regimes cleanly — the adopting peer's tick is
// TTL/3, so a handoff takeover lands in about a third of a TTL while
// expire-and-steal cannot fire before a full one.
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

// TestFleetDrainHandoff is the graceful-drain acceptance gate: a
// 3-peer fleet mid-sweep loses one member to a deliberate drain, and
// the drained peer's job must change hands through a handoff record —
// adopted at the next epoch, with no expiry steal of that job, instead
// of the ≥TTL dead air expire-and-steal costs — with the sweep still
// converging to bytes identical to a clean single-host run.
func TestFleetDrainHandoff(t *testing.T) {
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

	// Wait for b to be mid-job AND to have seen at least one live peer
	// (a handoff needs a target it believes alive).
	deadline := time.Now().Add(time.Minute)
	var drainedJob string
	for drainedJob == "" {
		alive := 0
		for _, pi := range b.Peers() {
			if pi.State == PeerAlive {
				alive++
			}
		}
		if alive > 0 {
			for _, st := range b.Server().Jobs() {
				if st.State == jobd.StateRunning && st.Cycle > 0 {
					drainedJob = st.Name
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("peer-b never got mid-job with a live peer in view")
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

	// Drain: local checkpoint barrier, then handoff records. The
	// takeover clock starts when Drain returns — that is the moment
	// the records are on disk and peer-b has left the fleet.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	if err := b.Drain(dctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	dcancel()
	handedOff := time.Now()
	if got := b.ctrHandoffsOffered.Load(); got < 1 {
		t.Fatalf("drained peer offered %d handoffs, want >= 1", got)
	}

	// The lease must change hands through the handoff record. The gate
	// is that causal fact, not a stopwatch: adoption comes before the
	// steal scan in every tick of a surviving peer, so a host too loaded
	// to tick within a TTL still adopts first, and the takeover time
	// (about a tick, TTL/3, on an idle host) is only logged.
	var after lease
	for {
		after, err = readLease(b.leasePath(drainedJob))
		if err == nil && after.Owner != "peer-b" {
			break
		}
		if time.Since(handedOff) >= time.Minute {
			t.Fatalf("lease for %s still %+v a minute after the drain; handoff never adopted", drainedJob, after)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("takeover of %s by %s in %v (TTL %v)", drainedJob, after.Owner, time.Since(handedOff), drainTTL)
	// Exactly one change of hands, and the new owner counted it as an
	// adoption: peer-b held one job, so that is the only handoff there
	// was to adopt, and an expiry steal of the job, before or after,
	// would have moved the epoch a second time.
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("takeover epoch = %d, want %d (fencing chain must advance by exactly one)", after.Epoch, before.Epoch+1)
	}
	adopter := a
	if after.Owner == "peer-c" {
		adopter = c
	}
	// The lease file changes before the taker counts how it took it.
	for adopter.ctrHandoffsAdopted.Load()+adopter.ctrSteals.Load() == 0 && time.Since(handedOff) < time.Minute {
		time.Sleep(time.Millisecond)
	}
	if adopted := adopter.ctrHandoffsAdopted.Load(); adopted != 1 {
		t.Fatalf("%s took the lease but counted %d handoff adoptions (a=%d c=%d)", after.Owner, adopted,
			a.ctrHandoffsAdopted.Load(), c.ctrHandoffsAdopted.Load())
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
	// The handed-off job's result must come from the adopter at the
	// incremented epoch — proof the run resumed under the new fence,
	// and (via assertConverged) produced byte-identical output anyway.
	for _, r := range res.Rows {
		if r.Name != drainedJob {
			continue
		}
		if r.Peer != after.Owner {
			t.Errorf("handed-off job finished by %s, want adopter %s", r.Peer, after.Owner)
		}
		if r.Epoch != before.Epoch+1 {
			t.Errorf("handed-off job result epoch = %d, want %d", r.Epoch, before.Epoch+1)
		}
	}
	// No handoff debris survives the sweep.
	if _, err := os.Stat(a.handoffPath(drainedJob)); !os.IsNotExist(err) {
		t.Errorf("handoff record for %s not cleaned up (stat: %v)", drainedJob, err)
	}
	assertConverged(t, cleanDir, dir, spec)
}
