package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/fsatomic"
	"attila/internal/jobd"
)

// newIdlePeer builds a peer with the directory layout on disk but no
// running loop or workers: tests drive idx.refresh / scanQueue / gc
// passes directly, single-threaded, with explicit clocks.
func newIdlePeer(t *testing.T, dir, id string) *Peer {
	t.Helper()
	p, err := NewPeer(Options{Dir: dir, PeerID: id, LeaseTTL: testTTL, MaxClaims: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"sweeps", "queue", "leases", "peers", "results", "out", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestQueueScanIncremental is the scale gate for the incremental
// index: with a 1000-job sweep published, the first refresh pays for
// every control-plane file once — and every refresh after that costs
// content reads proportional to what actually changed, not to queue
// size. PR 9's scan re-read all ~1000 leases and the sweep record on
// every TTL/3 tick.
func TestQueueScanIncremental(t *testing.T) {
	dir := t.TempDir()
	p := newIdlePeer(t, dir, "scanner")

	const jobs = 1000
	sweep := jobd.SweepSpec{Name: "scale"}
	for i := 0; i < jobs; i++ {
		sweep.Jobs = append(sweep.Jobs, fleetSpec(fmt.Sprintf("scale-%04d", i)))
	}
	if err := p.SubmitSweep(sweep); err != nil {
		t.Fatal(err)
	}
	// A slice of the queue is already claimed by another peer, so the
	// lease view has real content to index.
	const leased = 100
	for i := 0; i < leased; i++ {
		job := fmt.Sprintf("scale-%04d", i)
		if err := writeLease(p.leasePath(job), lease{Owner: "other", Epoch: 1, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}

	now := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	p.idx.refresh(now)
	if got := len(p.idx.queueJobs); got != jobs {
		t.Fatalf("index sees %d queue jobs, want %d", got, jobs)
	}
	if got := len(p.idx.sweepJobs); got != jobs {
		t.Fatalf("index sees %d sweep-named jobs, want %d", got, jobs)
	}
	if got := len(p.idx.leases); got != leased {
		t.Fatalf("index sees %d leases, want %d", got, leased)
	}
	firstPass := p.scanReads.Load()
	if firstPass < leased+1 {
		t.Fatalf("first refresh made %d content reads, want at least %d (every lease plus the sweep record)", firstPass, leased+1)
	}

	// Nothing changed: ticks two and three must make zero content
	// reads no matter how many jobs are queued.
	for i := 2; i <= 3; i++ {
		now = now.Add(100 * time.Millisecond)
		p.idx.refresh(now)
		if delta := p.scanReads.Load() - firstPass; delta != 0 {
			t.Fatalf("idle tick %d made %d content reads, want 0", i, delta)
		}
	}

	// One lease renews: exactly the changed file is re-read.
	if err := writeLease(p.leasePath("scale-0007"), lease{Owner: "other", Epoch: 1, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	before := p.scanReads.Load()
	now = now.Add(100 * time.Millisecond)
	p.idx.refresh(now)
	delta := p.scanReads.Load() - before
	if delta < 1 || delta > 2 {
		t.Fatalf("tick after one lease renewal made %d content reads, want ~1", delta)
	}
	if got := p.idx.leases["scale-0007"].Seq; got != 2 {
		t.Fatalf("renewed lease seq in index = %d, want 2", got)
	}

	// The forced full relist (every 16th tick, armor against coarse
	// directory timestamps) relists shards but still reads no content.
	before = p.scanReads.Load()
	for i := 0; i < 16; i++ {
		now = now.Add(100 * time.Millisecond)
		p.idx.refresh(now)
	}
	if delta := p.scanReads.Load() - before; delta != 0 {
		t.Fatalf("16 idle ticks (incl. a forced relist) made %d content reads, want 0", delta)
	}
	if got := len(p.idx.queueJobs); got != jobs {
		t.Fatalf("after forced relist the index sees %d queue jobs, want %d", got, jobs)
	}
}

// TestScanSkipsOrphanQueueFiles: a spec file no sweep record names —
// a crashed submit's debris, or a stray file — must never be claimed;
// it becomes claimable the moment a (re)submitted sweep names it.
func TestScanSkipsOrphanQueueFiles(t *testing.T) {
	dir := t.TempDir()
	p := newIdlePeer(t, dir, "claimer")

	spec := fleetSpec("orphan-1")
	norm, err := jobd.NormalizeSweep(jobd.SweepSpec{Name: "orphan", Jobs: []jobd.JobSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	// Plant the spec exactly where SubmitSweep would, but with no
	// sweep record: the crashed-submit shape the pending-marker
	// ordering makes impossible going forward, and which older fleets
	// could still have on disk.
	specJSON, err := json.MarshalIndent(norm[0], "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsatomic.WriteFile(p.queuePath(norm[0].Name), append(specJSON, '\n')); err != nil {
		t.Fatal(err)
	}

	now := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	p.idx.refresh(now)
	p.scanQueue(now)
	if _, err := os.Stat(p.leasePath(norm[0].Name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan spec was claimed (lease stat: %v); nothing will ever summarize it", err)
	}

	// The resubmitted sweep names the job; now it is real work.
	if err := p.SubmitSweep(jobd.SweepSpec{Name: "orphan", Jobs: []jobd.JobSpec{spec}}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(100 * time.Millisecond)
	p.idx.refresh(now)
	p.scanQueue(now)
	l, err := readLease(p.leasePath(norm[0].Name))
	if err != nil {
		t.Fatalf("sweep-named job was not claimed: %v", err)
	}
	if l.Owner != "claimer" || l.Epoch != 1 {
		t.Fatalf("claimed lease = %+v, want claimer@1", l)
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

// TestGCLeaseDirMarkers: steal-marker lifecycle under the GC pass —
// a spent marker (lease already at its epoch) goes immediately, an
// abandoned one blocks its epoch's steal until it ages out on the
// observation clock, then the steal goes through.
func TestGCLeaseDirMarkers(t *testing.T) {
	dir := t.TempDir()
	p := newIdlePeer(t, dir, "janitor")
	ttl := p.opts.LeaseTTL

	if _, err := p.tryClaim("job"); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.owned["job"] = &ownedJob{epoch: 1}
	p.mu.Unlock()

	// Spent: the winner of the epoch-1 claim race died between rewrite
	// and marker removal. The lease reached the epoch; the marker is
	// pure debris.
	if err := os.WriteFile(p.stealMarkerPath("job", 1), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	p.idx.refresh(now)
	p.gcLeaseDir(now)
	if _, err := os.Stat(p.stealMarkerPath("job", 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spent marker not removed (stat: %v)", err)
	}

	// Abandoned: a thief created the epoch-2 marker and died before
	// rewriting the lease. Until GC, the O_EXCL exclusion means nobody
	// can steal at epoch 2.
	if err := os.WriteFile(p.stealMarkerPath("job", 2), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	now = now.Add(100 * time.Millisecond)
	p.idx.refresh(now)
	p.gcLeaseDir(now) // too fresh to judge
	firstSeen := now

	thief := newLeasePeer(t, dir, "thief")
	observed, err := readLease(p.leasePath("job"))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := thief.trySteal("job", observed); !errors.Is(serr, errLeaseHeld) {
		t.Fatalf("steal under an abandoned marker = %v, want errLeaseHeld", serr)
	}

	// Under 2×TTL of observed age the marker survives...
	now = firstSeen.Add(2*ttl - time.Millisecond)
	p.idx.refresh(now)
	p.gcLeaseDir(now)
	if _, err := os.Stat(p.stealMarkerPath("job", 2)); err != nil {
		t.Fatalf("marker GC'd before 2×TTL (stat: %v)", err)
	}
	// ...at 2×TTL it is judged abandoned and removed, unblocking the
	// epoch.
	now = firstSeen.Add(2 * ttl)
	p.idx.refresh(now)
	p.gcLeaseDir(now)
	if _, err := os.Stat(p.stealMarkerPath("job", 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("abandoned marker survived 2×TTL (stat: %v)", err)
	}
	epoch, err := thief.trySteal("job", observed)
	if err != nil {
		t.Fatalf("steal after marker GC failed: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("post-GC steal epoch = %d, want 2", epoch)
	}

	// Handoff GC: a record addressed to someone else whose lease
	// already reached the offered epoch is consumed debris.
	if err := fsatomic.WriteFile(p.handoffPath("job"), []byte(`{"job":"job","from":"janitor","to":"someone-else","epoch":2}`)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(100 * time.Millisecond)
	p.idx.refresh(now)
	p.gcLeaseDir(now)
	if _, err := os.Stat(p.handoffPath("job")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("consumed handoff record not GC'd (stat: %v)", err)
	}
}
