package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/jobd"
)

// newLeasePeer builds a peer for lease-protocol tests without starting
// its job server or loop: the lease primitives are plain functions
// over the shared directory.
func newLeasePeer(t *testing.T, dir, id string) *Peer {
	t.Helper()
	p, err := NewPeer(Options{Dir: dir, PeerID: id, LeaseTTL: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "leases"), 0o755); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestObservationBoundary pins the staleness arithmetic with synthetic
// clocks: a lease renewed exactly at the TTL boundary resets the
// observation to zero, while one unchanged for exactly the TTL is
// stealable (the scan uses stale < TTL to hold off).
func TestObservationBoundary(t *testing.T) {
	ttl := 200 * time.Millisecond
	t0 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)

	// Unchanged for exactly TTL: stealable.
	var obs observation
	if got := obs.observe("owner|1|5", t0); got != 0 {
		t.Fatalf("first observation = %v, want 0", got)
	}
	if got := obs.observe("owner|1|5", t0.Add(ttl)); got != ttl {
		t.Fatalf("stale at exactly TTL = %v, want %v", got, ttl)
	}
	if got := obs.observe("owner|1|5", t0.Add(ttl)); got < ttl {
		t.Fatalf("stale %v < TTL: scan would not steal, but must", got)
	}

	// Renewed exactly at TTL: the seq bump resets the clock, no steal.
	var obs2 observation
	obs2.observe("owner|1|5", t0)
	if got := obs2.observe("owner|1|6", t0.Add(ttl)); got != 0 {
		t.Fatalf("renewal at TTL boundary: stale = %v, want 0 (clock resets)", got)
	}
	if got := obs2.observe("owner|1|6", t0.Add(2*ttl-time.Nanosecond)); got >= ttl {
		t.Fatalf("stale %v after boundary renewal, want < TTL", got)
	}
}

// TestRenewalKeepsLeaseUnstolen drives claim/renew/observe with
// explicit clocks: as long as the owner renews within every TTL
// window, an observer never accumulates enough staleness to steal.
func TestRenewalKeepsLeaseUnstolen(t *testing.T) {
	dir := t.TempDir()
	owner := newLeasePeer(t, dir, "owner")
	thief := newLeasePeer(t, dir, "thief")
	ttl := thief.opts.LeaseTTL

	epoch, err := owner.tryClaim("job")
	if err != nil {
		t.Fatal(err)
	}
	var obs observation
	now := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		l, err := readLease(thief.leasePath("job"))
		if err != nil {
			t.Fatal(err)
		}
		if stale := obs.observe(leaseKey(l), now); stale >= ttl {
			t.Fatalf("iteration %d: observer saw stale %v despite renewals", i, stale)
		}
		// Owner renews just inside the TTL window.
		now = now.Add(ttl - time.Millisecond)
		if err := owner.renewLease("job", epoch); err != nil {
			t.Fatalf("renewal %d failed: %v", i, err)
		}
	}
}

// TestClockSkewedPeers: lease staleness must be an observation on the
// local clock, never a comparison of another host's wall clock. The
// lease file's mtime is set an hour into the future — a skewed remote
// host — and the steal must behave identically.
func TestClockSkewedPeers(t *testing.T) {
	dir := t.TempDir()
	remote := newLeasePeer(t, dir, "remote")
	local := newLeasePeer(t, dir, "local")
	ttl := local.opts.LeaseTTL

	if _, err := remote.tryClaim("job"); err != nil {
		t.Fatal(err)
	}
	// The remote host's clock is an hour ahead: its lease file carries
	// a future mtime. (The content carries no timestamp at all.)
	skewed := time.Now().Add(time.Hour)
	if err := os.Chtimes(remote.leasePath("job"), skewed, skewed); err != nil {
		t.Fatal(err)
	}

	l, err := readLease(local.leasePath("job"))
	if err != nil {
		t.Fatal(err)
	}
	var obs observation
	t0 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	if stale := obs.observe(leaseKey(l), t0); stale != 0 {
		t.Fatalf("first observation = %v, want 0", stale)
	}
	// Before a full local TTL has passed the steal must not happen, no
	// matter what the file's timestamps claim.
	if stale := obs.observe(leaseKey(l), t0.Add(ttl/2)); stale >= ttl {
		t.Fatalf("half a TTL of local time read as stale %v", stale)
	}
	// After a full local TTL of no renewals it must, equally regardless
	// of the future mtime.
	if stale := obs.observe(leaseKey(l), t0.Add(ttl)); stale < ttl {
		t.Fatalf("full TTL of local time read as stale only %v", stale)
	}
	epoch, err := local.trySteal("job", l)
	if err != nil {
		t.Fatalf("steal of a clock-skewed stale lease failed: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("steal epoch = %d, want 2", epoch)
	}
	got, err := readLease(local.leasePath("job"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != "local" || got.Epoch != 2 {
		t.Fatalf("post-steal lease = %+v, want local@2", got)
	}
}

// TestDoubleStealOneWinner: many thieves observe the same expired
// lease and race trySteal — the O_EXCL epoch marker admits exactly
// one winner per epoch; everyone else gets errLeaseHeld and backs off.
func TestDoubleStealOneWinner(t *testing.T) {
	dir := t.TempDir()
	dead := newLeasePeer(t, dir, "dead")
	thieves := []*Peer{
		newLeasePeer(t, dir, "thief-a"),
		newLeasePeer(t, dir, "thief-b"),
		newLeasePeer(t, dir, "thief-c"),
		newLeasePeer(t, dir, "thief-d"),
	}
	for round := 0; round < 25; round++ {
		job := "job-" + string(rune('a'+round%26)) + "-" + string(rune('0'+round/26))
		if _, err := dead.tryClaim(job); err != nil {
			t.Fatal(err)
		}
		observed, err := readLease(dead.leasePath(job))
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			epoch int64
			err   error
		}
		results := make([]outcome, len(thieves))
		var wg sync.WaitGroup
		for i, th := range thieves {
			wg.Add(1)
			go func(i int, th *Peer) {
				defer wg.Done()
				e, serr := th.trySteal(job, observed)
				results[i] = outcome{e, serr}
			}(i, th)
		}
		wg.Wait()
		winners := 0
		for i, r := range results {
			switch {
			case r.err == nil:
				winners++
				if r.epoch != 2 {
					t.Fatalf("round %d: winner epoch = %d, want 2", round, r.epoch)
				}
			case errors.Is(r.err, errLeaseHeld):
				// Loser: backs off to re-observe, as scanQueue does.
			default:
				t.Fatalf("round %d thief %d: unexpected error %v", round, i, r.err)
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d steal winners, want exactly 1", round, winners)
		}
	}
}

// TestFencedRevivedHost: the split-brain case. A host claims a job,
// stalls past its TTL, and the lease is stolen; when the original
// owner revives, its renewal and every fence-gated durable write must
// fail — it may not write a single stale-epoch byte.
func TestFencedRevivedHost(t *testing.T) {
	dir := t.TempDir()
	old := newLeasePeer(t, dir, "old")
	thief := newLeasePeer(t, dir, "thief")

	epoch, err := old.tryClaim("job")
	if err != nil {
		t.Fatal(err)
	}
	old.mu.Lock()
	old.owned["job"] = &ownedJob{epoch: epoch}
	old.mu.Unlock()
	if err := old.fenceCheck("job"); err != nil {
		t.Fatalf("owner's own fence check failed: %v", err)
	}
	if got := old.leaseEpoch("job"); got != 1 {
		t.Fatalf("owner epoch = %d, want 1", got)
	}

	// The owner goes silent; the thief observes expiry and steals.
	observed, err := readLease(old.leasePath("job"))
	if err != nil {
		t.Fatal(err)
	}
	newEpoch, err := thief.trySteal("job", observed)
	if err != nil {
		t.Fatal(err)
	}
	if newEpoch != epoch+1 {
		t.Fatalf("steal epoch = %d, want %d", newEpoch, epoch+1)
	}

	// The revived owner: renewal refused, fence refused.
	if err := old.renewLease("job", epoch); !errors.Is(err, errLeaseHeld) {
		t.Fatalf("revived owner's renewal = %v, want errLeaseHeld", err)
	}
	ferr := old.fenceCheck("job")
	if ferr == nil {
		t.Fatal("revived owner's fence check passed; a stale-epoch write would have landed")
	}
	if !errors.Is(ferr, jobd.ErrFenced) {
		t.Fatalf("fence error = %v, want jobd.ErrFenced", ferr)
	}
}

// TestStealCorruptLeaseRecoversEpochFloor: a torn lease file reads as
// the corrupt sentinel with epoch 0. Stealing it must not restart the
// fencing chain at 1 — the old owner's checkpoints carry the real
// epoch and would pass later checks — so the thief recovers the floor
// from checkpoint v2 metadata and surviving steal markers.
func TestStealCorruptLeaseRecoversEpochFloor(t *testing.T) {
	dir := t.TempDir()
	p := newLeasePeer(t, dir, "thief")

	// Floor from checkpoint metadata: the last owner durably stamped
	// epoch 5 before the crash tore the lease.
	if err := os.WriteFile(p.leasePath("ckptjob"), []byte("{\"owner\": \"pe"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := chkpt.NewSnapshot(chkpt.Meta{Cycle: 42, Config: "c", Workload: "w", Epoch: 5})
	snap.Add("state", []byte("payload"))
	if err := snap.WriteFile(filepath.Join(dir, "checkpoints", "ckptjob.ckpt")); err != nil {
		t.Fatal(err)
	}
	observed, err := readLease(p.leasePath("ckptjob"))
	if err != nil {
		t.Fatal(err)
	}
	if observed.Owner != corruptOwner || observed.Epoch != 0 {
		t.Fatalf("torn lease read as %+v, want the corrupt sentinel at epoch 0", observed)
	}
	epoch, err := p.trySteal("ckptjob", observed)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 6 {
		t.Fatalf("steal of torn lease got epoch %d, want 6 (checkpoint floor 5 + 1)", epoch)
	}

	// Floor from a surviving steal marker: epoch 7 was claimed by some
	// thief that died before (or while) rewriting the lease.
	if err := os.WriteFile(p.leasePath("markerjob"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p.stealMarkerPath("markerjob", 7), []byte("gone\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	observed, err = readLease(p.leasePath("markerjob"))
	if err != nil {
		t.Fatal(err)
	}
	epoch, err = p.trySteal("markerjob", observed)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 8 {
		t.Fatalf("steal of torn lease got epoch %d, want 8 (marker floor 7 + 1)", epoch)
	}

	// A readable lease never consults the floor: the observed epoch is
	// authoritative, and marker-derived floors during live races could
	// fork the chain.
	if err := writeLease(p.leasePath("cleanjob"), lease{Owner: "dead", Epoch: 3, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	snap = chkpt.NewSnapshot(chkpt.Meta{Cycle: 7, Config: "c", Workload: "w", Epoch: 9})
	snap.Add("state", []byte("payload"))
	if err := snap.WriteFile(filepath.Join(dir, "checkpoints", "cleanjob.ckpt")); err != nil {
		t.Fatal(err)
	}
	observed, err = readLease(p.leasePath("cleanjob"))
	if err != nil {
		t.Fatal(err)
	}
	epoch, err = p.trySteal("cleanjob", observed)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("steal of readable lease got epoch %d, want observed+1 = 4", epoch)
	}
}

// TestLeaseYankKeepsEpoch: the chaos leaseyank rewrites the owner but
// must keep the epoch — deleting the lease instead would let a fresh
// claim restart at epoch 1 and break the fencing chain.
func TestLeaseYankKeepsEpoch(t *testing.T) {
	dir := t.TempDir()
	owner := newLeasePeer(t, dir, "owner")
	thief := newLeasePeer(t, dir, "thief")

	epoch, err := owner.tryClaim("job")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := owner.renewLease("job", epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.yankLease("job"); err != nil {
		t.Fatal(err)
	}
	l, err := readLease(owner.leasePath("job"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Owner != yankedOwner {
		t.Fatalf("yanked lease owner = %q, want %q", l.Owner, yankedOwner)
	}
	if l.Epoch != epoch {
		t.Fatalf("yank changed the epoch: %d -> %d", epoch, l.Epoch)
	}
	// The original owner is fenced immediately...
	if err := owner.renewLease("job", epoch); !errors.Is(err, errLeaseHeld) {
		t.Fatalf("yanked owner's renewal = %v, want errLeaseHeld", err)
	}
	// ...and the thief steals at epoch+1 through the ordinary path.
	got, err := thief.trySteal("job", l)
	if err != nil {
		t.Fatal(err)
	}
	if got != epoch+1 {
		t.Fatalf("post-yank steal epoch = %d, want %d", got, epoch+1)
	}
}
