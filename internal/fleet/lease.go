package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"attila/internal/chkpt"
	"attila/internal/fsatomic"
)

// Lease files are how peers claim jobs without a coordinator. Each
// job in the shared queue has at most one lease file:
//
//	leases/<job>.json  {"owner": "peer-a", "epoch": 3, "seq": 17}
//
// The owner republishes the lease (seq+1) every tick; everyone else
// watches it. The protocol is deliberately clock-free: lease files
// carry NO timestamps, and a peer never compares another host's clock
// to its own. Staleness is an observation: a peer records the
// (epoch, seq) pair it saw and how long ago — on its OWN monotonic
// clock — the pair last changed. A lease whose pair has not advanced
// for a full TTL of locally measured time is expired no matter how
// skewed the hosts' wall clocks are.
//
// Epochs are the fencing tokens. Stealing a lease bumps the epoch by
// exactly one, through a steal marker created with O_EXCL:
//
//	leases/<job>.steal.<newepoch>
//
// The filesystem guarantees exactly one winner per epoch; losers back
// off and re-observe. The winner rewrites the lease to
// {owner: me, epoch: new, seq: 0} and resumes the job from its last
// checkpoint. The old owner — maybe paused, maybe partitioned, maybe
// just slow — discovers the loss at its next renewal or, sooner, at
// its next fence-gated durable write, and aborts without writing a
// byte: internal/jobd consults the lease (owner and epoch both) before
// every checkpoint, stats CSV, and manifest write.

// lease is the on-disk claim record.
type lease struct {
	Owner string `json:"owner"`
	Epoch int64  `json:"epoch"`
	Seq   int64  `json:"seq"`
}

// yankedOwner is the dead owner a chaos leaseyank rewrites a lease
// to: it never renews, so the lease goes stale and is stolen through
// the ordinary path, while the real owner fences on the name
// mismatch.
const yankedOwner = "(yanked)"

// corruptOwner is the sentinel readLease reports for a lease file
// whose JSON does not parse — a torn write surfaced by a crash. It
// carries Epoch 0, which is why the steal path must recover the real
// epoch floor from checkpoint metadata before rewriting (see
// trySteal): restarting the fencing chain at 1 would let the fenced
// old owner's higher-epoch stamps pass later checks.
const corruptOwner = "(corrupt)"

// errLeaseHeld distinguishes "someone else owns it" from I/O errors.
var errLeaseHeld = errors.New("fleet: lease held")

func (p *Peer) leasePath(job string) string {
	return filepath.Join(p.opts.Dir, "leases", job+".json")
}

func (p *Peer) stealMarkerPath(job string, epoch int64) string {
	return filepath.Join(p.opts.Dir, "leases", fmt.Sprintf("%s.steal.%d", job, epoch))
}

// parseMarkerName splits a steal marker's file name into its job and
// epoch.
func parseMarkerName(name string) (job string, epoch int64, ok bool) {
	i := strings.Index(name, ".steal.")
	if i <= 0 {
		return "", 0, false
	}
	e, err := strconv.ParseInt(name[i+len(".steal."):], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return name[:i], e, true
}

// readLease loads a job's lease; os.ErrNotExist when unclaimed.
func readLease(path string) (lease, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return lease{}, err
	}
	var l lease
	if err := json.Unmarshal(data, &l); err != nil {
		// A torn lease write is indistinguishable from a dead owner:
		// report it held by nobody so the observation clock runs and the
		// steal path eventually recovers it.
		return lease{Owner: corruptOwner, Epoch: 0, Seq: -1}, nil
	}
	return l, nil
}

// writeLease atomically and durably replaces a lease file. Only the
// owner (or a steal winner holding the epoch marker) may call it.
// Durability matters as much as atomicity here: an un-fsynced rename
// can, after a power cut, surface an empty lease that readLease
// treats as corrupt — and corrupt means stealable, so the still-live
// owner would lose its jobs to a crash that never happened.
func writeLease(path string, l lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, append(data, '\n'))
}

// tryClaim attempts the initial claim of an unleased job. The
// exactly-one-winner guarantee comes from os.Link: the lease content
// is written to a private temp file first, then linked into place —
// link fails with ErrExist if any other peer got there first, and a
// reader can never observe a half-written lease.
func (p *Peer) tryClaim(job string) (int64, error) {
	path := p.leasePath(job)
	data, err := json.Marshal(lease{Owner: p.opts.PeerID, Epoch: 1, Seq: 0})
	if err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), job+".claim*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return 0, err
	}
	// fsync before the link: the link is the claim, and a claim whose
	// content can vanish in a power cut is a torn lease waiting to be
	// mis-stolen.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		if errors.Is(err, os.ErrExist) {
			return 0, errLeaseHeld
		}
		return 0, err
	}
	return 1, nil
}

// renewLease republishes an owned lease (seq+1). It returns
// errLeaseHeld when the lease no longer names this peer at the
// expected epoch — the owner has been fenced and must abort the job.
func (p *Peer) renewLease(job string, epoch int64) error {
	path := p.leasePath(job)
	l, err := readLease(path)
	if err != nil {
		return err
	}
	if l.Owner != p.opts.PeerID || l.Epoch != epoch {
		return fmt.Errorf("%w: %s owned by %s@%d, expected %s@%d",
			errLeaseHeld, job, l.Owner, l.Epoch, p.opts.PeerID, epoch)
	}
	return writeLease(path, lease{Owner: p.opts.PeerID, Epoch: epoch, Seq: l.Seq + 1})
}

// trySteal attempts to take over a lease observed expired at the
// given epoch. The O_EXCL steal marker serializes thieves: exactly
// one creates leases/<job>.steal.<epoch+1> and rewrites the lease;
// everyone else gets errLeaseHeld and backs off to re-observe the new
// owner's renewals.
//
// When the observed lease is the corrupt sentinel its epoch is 0 —
// the torn file no longer says how far the fencing chain had
// advanced. Writing epoch 1 would hand the old owner a free pass: its
// checkpoints and manifests carry the real (higher) epoch and would
// sail through later epoch checks. So for corrupt leases the new
// epoch is recovered as one past the floor: the highest epoch any
// previous owner durably stamped into the job's checkpoint, or left
// behind as a surviving steal marker.
func (p *Peer) trySteal(job string, observed lease) (int64, error) {
	newEpoch := observed.Epoch + 1
	if observed.Owner == corruptOwner {
		if floor := p.epochFloor(job); floor >= newEpoch {
			newEpoch = floor + 1
		}
	}
	marker := p.stealMarkerPath(job, newEpoch)
	f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return 0, errLeaseHeld
		}
		return 0, err
	}
	// The marker content is advisory (who tried), but a failed write
	// means this filesystem is in trouble — do not build a takeover on
	// it. Remove the marker so the epoch is not blocked by our debris.
	if _, werr := fmt.Fprintf(f, "%s\n", p.opts.PeerID); werr != nil {
		f.Close()
		os.Remove(marker)
		return 0, werr
	}
	if cerr := f.Close(); cerr != nil {
		os.Remove(marker)
		return 0, cerr
	}
	// Re-verify under the marker: if the lease advanced between our
	// observation and the marker (the owner woke up, or a prior-epoch
	// steal landed), stand down and let the marker age out.
	cur, err := readLease(p.leasePath(job))
	if err != nil || cur.Epoch != observed.Epoch || cur.Seq != observed.Seq || cur.Owner != observed.Owner {
		os.Remove(marker)
		return 0, errLeaseHeld
	}
	if err := writeLease(p.leasePath(job), lease{Owner: p.opts.PeerID, Epoch: newEpoch, Seq: 0}); err != nil {
		os.Remove(marker)
		return 0, err
	}
	os.Remove(marker)
	return newEpoch, nil
}

// epochFloor reconstructs the highest epoch known to have existed for
// a job whose lease file is torn: the epoch stamped in the job's
// checkpoint (v2 container metadata — stamped before any data it
// fences, so never inflated) and the highest surviving steal marker
// (a marker at epoch E means E was claimed by some thief). Zero when
// neither source exists; errors are treated as "no evidence" since
// the floor only ever raises the new epoch, never lowers it.
func (p *Peer) epochFloor(job string) int64 {
	var floor int64
	if meta, err := chkpt.ReadMeta(filepath.Join(p.opts.Dir, "checkpoints", job+".ckpt")); err == nil && meta.Epoch > floor {
		floor = meta.Epoch
	}
	entries, err := os.ReadDir(filepath.Join(p.opts.Dir, "leases"))
	if err != nil {
		return floor
	}
	for _, e := range entries {
		j, epoch, ok := parseMarkerName(e.Name())
		if ok && j == job && epoch > floor {
			floor = epoch
		}
	}
	return floor
}

// yankLease implements the chaos leaseyank fault: the lease is
// rewritten to a dead owner at the SAME epoch. The real owner fences
// on the owner mismatch at its next renewal or durable write; thieves
// watch the dead owner never renew and steal at epoch+1 through the
// normal path. Keeping the epoch intact is what preserves the fencing
// chain: had the file been deleted instead, a fresh claim would
// restart at epoch 1 and the old owner's stale writes would pass the
// epoch check.
func (p *Peer) yankLease(job string) error {
	path := p.leasePath(job)
	l, err := readLease(path)
	if err != nil {
		return err
	}
	if l.Owner == yankedOwner {
		return nil
	}
	return writeLease(path, lease{Owner: yankedOwner, Epoch: l.Epoch, Seq: l.Seq})
}

// observation tracks when a watched lease's (owner, epoch, seq) last
// changed, on this peer's own monotonic clock. This is the only notion
// of time the fleet protocol has across hosts; wall clocks are never
// compared.
type observation struct {
	key   string    // last value seen
	since time.Time // local time the value was first seen
}

// observe folds in the current value and reports how long it has been
// unchanged, measured locally.
func (o *observation) observe(key string, now time.Time) time.Duration {
	if o.key != key || o.since.IsZero() {
		o.key = key
		o.since = now
		return 0
	}
	return now.Sub(o.since)
}

func leaseKey(l lease) string {
	return fmt.Sprintf("%s|%d|%d", l.Owner, l.Epoch, l.Seq)
}

// fenceCheck is the Fence hook wired into the local jobd server: it
// is consulted immediately before every durable write on a job's
// behalf. The write is allowed only while the lease file still names
// this peer at the epoch it claimed.
func (p *Peer) fenceCheck(job string) error {
	p.mu.Lock()
	oj := p.owned[job]
	p.mu.Unlock()
	if oj == nil {
		p.ctrFenceRefusals.Add(1)
		return fmt.Errorf("%w: %s not owned by %s", jobdErrFenced, job, p.opts.PeerID)
	}
	l, err := readLease(p.leasePath(job))
	if err != nil {
		p.ctrFenceRefusals.Add(1)
		return fmt.Errorf("%w: %s lease unreadable: %v", jobdErrFenced, job, err)
	}
	if l.Owner != p.opts.PeerID || l.Epoch != oj.epoch {
		p.ctrFenceRefusals.Add(1)
		return fmt.Errorf("%w: %s owned by %s@%d, not %s@%d",
			jobdErrFenced, job, l.Owner, l.Epoch, p.opts.PeerID, oj.epoch)
	}
	return nil
}

// leaseEpoch is the LeaseEpoch hook: the fencing epoch stamped into
// every checkpoint and manifest this peer writes for the job.
func (p *Peer) leaseEpoch(job string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if oj := p.owned[job]; oj != nil {
		return oj.epoch
	}
	return 0
}

// jobName extracts the job name from a queue or lease file name.
func jobName(file, suffix string) (string, bool) {
	base := filepath.Base(file)
	if !strings.HasSuffix(base, suffix) || strings.Contains(base, ".steal.") {
		return "", false
	}
	return strings.TrimSuffix(base, suffix), true
}
