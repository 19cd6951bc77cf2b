package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"attila/internal/fsatomic"
	"attila/internal/jobd"
)

// newIdlePeer builds a peer with the directory layout on disk but no
// running loop or workers: tests drive scan / scanQueue / gc passes
// directly, single-threaded, with explicit clocks.
func newIdlePeer(t testing.TB, dir, id string) *Peer {
	t.Helper()
	p, err := NewPeer(Options{Dir: dir, PeerID: id, LeaseTTL: testTTL, MaxClaims: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"sweeps", "queue", "leases", "results", "out", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestScanReadsOnlyLiveLeases pins what a tick costs the shared
// filesystem: with a 1000-job sweep published, 100 jobs leased by
// another peer and half of those finished, a scan reads the sweep
// record and the 50 leases of unfinished jobs — never a queue spec, a
// result, or a finished job's tombstone lease — and scan_reads counts
// exactly those reads, on every tick.
func TestScanReadsOnlyLiveLeases(t *testing.T) {
	dir := t.TempDir()
	p := newIdlePeer(t, dir, "scanner")

	const jobs, leased = 1000, 100
	sweep := jobd.SweepSpec{Name: "scale"}
	for i := 0; i < jobs; i++ {
		sweep.Jobs = append(sweep.Jobs, fleetSpec(fmt.Sprintf("scale-%04d", i)))
	}
	if err := p.SubmitSweep(sweep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leased; i++ {
		job := fmt.Sprintf("scale-%04d", i)
		if err := writeLease(p.leasePath(job), lease{Owner: "other", Epoch: 1, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := p.writeResult(job, jobd.JobStatus{Name: job, State: jobd.StateDone}); err != nil {
				t.Fatal(err)
			}
		}
	}

	const live = leased / 2
	want := int64(live + 1) // live leases, the sweep record
	for tick := 1; tick <= 2; tick++ {
		before := p.scanReads.Load()
		v := p.scan()
		if got := p.scanReads.Load() - before; got != want {
			t.Fatalf("tick %d made %d content reads, want %d (live leases + sweep record)", tick, got, want)
		}
		if len(v.sweeps) != 1 || len(v.sweeps[0].Jobs) != jobs {
			t.Fatalf("tick %d: view holds %d sweep records, want 1 naming %d jobs", tick, len(v.sweeps), jobs)
		}
		if len(v.results) != leased-live || len(v.leases) != live || v.held["other"] != live {
			t.Fatalf("tick %d: view has %d results, %d leases, %d held by other; want %d, %d, %d",
				tick, len(v.results), len(v.leases), v.held["other"], leased-live, live, live)
		}
		if _, read := v.leases["scale-0000"]; read {
			t.Fatalf("tick %d read the tombstone lease of a finished job", tick)
		}
	}
}

// TestScanSeesSameSizeSameMtimeRewrite: a lease rewritten to another
// owner and epoch with the same length and the same mtime — two writes
// within one timestamp tick on a filesystem with coarse timestamps —
// must be seen. Were it hidden, a dead previous owner would be credited
// the lease forever, in the view and in /fleet/peers.
func TestScanSeesSameSizeSameMtimeRewrite(t *testing.T) {
	dir := t.TempDir()
	p := newIdlePeer(t, dir, "watcher")
	tick := func() *view {
		v := p.scan()
		p.mu.Lock()
		p.view = v
		p.mu.Unlock()
		return v
	}

	path := p.leasePath("job")
	if err := writeLease(path, lease{Owner: "peer-a", Epoch: 1, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	tick()

	want := lease{Owner: "peer-c", Epoch: 2, Seq: 0}
	if err := writeLease(path, want); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, before.ModTime(), before.ModTime()); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() || !after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("rewrite changed (size, mtime) from (%d, %v) to (%d, %v); the test needs them equal",
			before.Size(), before.ModTime(), after.Size(), after.ModTime())
	}

	v := tick()
	if got := v.leases["job"]; got != want {
		t.Fatalf("view holds lease %+v after the rewrite, want %+v", got, want)
	}
	peers := p.Peers()
	if len(peers) != 1 || peers[0] != (PeerInfo{ID: "peer-c", Leases: 1}) {
		t.Fatalf("Peers() = %+v, want only peer-c holding 1 lease", peers)
	}
}

// TestUnreadableSpecIsNotClaimed: the spec is read before the claim,
// so a job whose spec is corrupt, or not yet published, is skipped
// instead of leased by a peer that can never run or renew it.
func TestUnreadableSpecIsNotClaimed(t *testing.T) {
	dir := t.TempDir()
	p := newIdlePeer(t, dir, "claimer")
	if err := p.writeSweepRecord(sweepRecord{Name: "bad", Jobs: []string{"bad-1", "bad-2"}}); err != nil {
		t.Fatal(err)
	}
	// bad-1's spec is corrupt; bad-2's was never written.
	if err := fsatomic.WriteFile(p.queuePath("bad-1"), []byte("{not json")); err != nil {
		t.Fatal(err)
	}

	p.scanQueue(p.scan(), time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	for _, job := range []string{"bad-1", "bad-2"} {
		if _, err := os.Stat(p.leasePath(job)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s was claimed without a readable spec (lease stat: %v)", job, err)
		}
	}
	p.mu.Lock()
	owned := len(p.owned)
	p.mu.Unlock()
	if owned != 0 {
		t.Fatalf("claimer owns %d jobs, want 0", owned)
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
	p.scanQueue(p.scan(), now)
	if _, err := os.Stat(p.leasePath(norm[0].Name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan spec was claimed (lease stat: %v); nothing will ever summarize it", err)
	}

	// The resubmitted sweep names the job; now it is real work.
	if err := p.SubmitSweep(jobd.SweepSpec{Name: "orphan", Jobs: []jobd.JobSpec{spec}}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(100 * time.Millisecond)
	p.scanQueue(p.scan(), now)
	l, err := readLease(p.leasePath(norm[0].Name))
	if err != nil {
		t.Fatalf("sweep-named job was not claimed: %v", err)
	}
	if l.Owner != "claimer" || l.Epoch != 1 {
		t.Fatalf("claimed lease = %+v, want claimer@1", l)
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
	p.gcLeaseDir(p.scan(), now)
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
	p.gcLeaseDir(p.scan(), now) // too fresh to judge
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
	p.gcLeaseDir(p.scan(), now)
	if _, err := os.Stat(p.stealMarkerPath("job", 2)); err != nil {
		t.Fatalf("marker GC'd before 2×TTL (stat: %v)", err)
	}
	// ...at 2×TTL it is judged abandoned and removed, unblocking the
	// epoch.
	now = firstSeen.Add(2 * ttl)
	p.gcLeaseDir(p.scan(), now)
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
}

var benchView *view

// BenchmarkPeerScan measures one tick's read of the control plane, from
// the fleet's sweep sizes to 100 times past them. Every job is queued
// and leased by another peer, and half of them have results. reads/op
// is the files whose contents a tick reads; `make check` runs it once
// so it cannot rot.
func BenchmarkPeerScan(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			p := newIdlePeer(b, dir, "scanner")
			writeScanFixture(b, p, n)
			before := p.scanReads.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchView = p.scan()
			}
			b.ReportMetric(float64(p.scanReads.Load()-before)/float64(b.N), "reads/op")
		})
	}
}

// writeScanFixture lays out one n-job sweep in the fleet's on-disk
// format with plain writes (a durable write per file would make the
// set-up, not the scan, the slow part): a sweep record, a queue spec
// and a lease per job, and a result for every other job.
func writeScanFixture(b *testing.B, p *Peer, n int) {
	b.Helper()
	write := func(path string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	rec := sweepRecord{Name: "scan"}
	for i := 0; i < n; i++ {
		job := fmt.Sprintf("scan-%05d", i)
		rec.Jobs = append(rec.Jobs, job)
		write(p.queuePath(job), fleetSpec(job))
		write(p.leasePath(job), lease{Owner: "other", Epoch: 1, Seq: 1})
		if i%2 == 0 {
			write(p.resultPath(job), Result{Name: job, State: string(jobd.StateDone)})
		}
	}
	write(p.sweepPath(rec.Name), rec)
}
