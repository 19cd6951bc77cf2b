package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"attila/internal/fsatomic"
)

// Cooperative lease handoff. Without it, a gracefully draining peer's
// jobs sit parked until the lease goes stale and the ordinary steal
// path fires — a full TTL of dead air per job. A drain knows it is
// leaving, so it can say so: after the local jobd has checkpointed
// and parked every running job, the peer writes one record per still-
// owned job:
//
//	leases/<job>.handoff  {"job":..., "from": me, "to": peer, "epoch": E+1}
//
// naming a live target peer and the epoch the takeover must use. The
// target adopts on its next tick — takeover in one tick instead of
// ≥TTL — by running the ordinary steal path (O_EXCL marker at E+1,
// re-verify, rewrite), so the handoff preserves every guarantee a
// steal has: exactly one owner per epoch even if a thief races the
// target, and the drained peer's stale writes fence on E+1 exactly as
// if they had been stolen from. The record is advisory, never load-
// bearing: if the target is gone or never acts, the lease simply goes
// stale and expire-and-steal recovers it; any peer GCs a handoff once
// the lease reaches its epoch or it ages out unconsumed.
type handoff struct {
	Job   string `json:"job"`
	From  string `json:"from"`
	To    string `json:"to"`
	Epoch int64  `json:"epoch"` // the epoch the takeover writes (old + 1)
}

func (p *Peer) handoffPath(job string) string {
	return filepath.Join(p.opts.Dir, "leases", job+".handoff")
}

func readHandoff(path string) (handoff, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return handoff{}, err
	}
	var h handoff
	if err := json.Unmarshal(data, &h); err != nil {
		return handoff{}, err
	}
	return h, nil
}

// Drain gracefully winds the peer down: the local jobd checkpoints
// and parks every running job (while this peer's loop keeps renewing
// their leases, so nothing is stolen mid-checkpoint), then the loop
// stops and every still-owned lease is offered to a live peer via a
// handoff record. Jobs with no live target fall back to
// expire-and-steal. Safe to call more than once; Close calls it with
// a default grace period if the caller has not.
func (p *Peer) Drain(ctx context.Context) error {
	p.mu.Lock()
	if p.draining || p.killed {
		p.mu.Unlock()
		p.stopLoop()
		return nil
	}
	p.draining = true
	p.mu.Unlock()
	err := p.srv.Drain(ctx)
	p.stopLoop()
	p.handoffOwned()
	return err
}

// stopLoop closes the tick loop and waits for it; idempotent.
func (p *Peer) stopLoop() {
	select {
	case <-p.stopCh:
	default:
		close(p.stopCh)
	}
	p.wg.Wait()
}

// handoffOwned writes a handoff record for every lease this peer
// still holds unpublished, targeting live peers round-robin. Called
// with the loop stopped: nothing else on this peer mutates leases.
func (p *Peer) handoffOwned() {
	p.mu.Lock()
	jobs := make([]string, 0, len(p.owned))
	for name, oj := range p.owned {
		if !oj.published {
			jobs = append(jobs, name)
		}
	}
	targets := p.aliveTargetsLocked()
	p.mu.Unlock()
	sort.Strings(jobs)
	if len(targets) == 0 {
		if len(jobs) > 0 {
			p.logf("fleet: %s: draining with %d jobs and no live peer; leases will expire and be stolen", p.opts.PeerID, len(jobs))
		}
		return
	}
	for i, job := range jobs {
		p.mu.Lock()
		oj := p.owned[job]
		p.mu.Unlock()
		if oj == nil {
			continue
		}
		// Only offer what we verifiably still own: a lease yanked or
		// stolen during the drain is someone else's to run.
		l, err := readLease(p.leasePath(job))
		if err != nil || l.Owner != p.opts.PeerID || l.Epoch != oj.epoch {
			continue
		}
		h := handoff{Job: job, From: p.opts.PeerID, To: targets[i%len(targets)], Epoch: oj.epoch + 1}
		data, merr := json.Marshal(h)
		if merr != nil {
			continue
		}
		if werr := fsatomic.WriteFile(p.handoffPath(job), append(data, '\n')); werr != nil {
			p.logf("fleet: %s: handoff write for %s failed: %v", p.opts.PeerID, job, werr)
			continue
		}
		p.ctrHandoffsOffered.Add(1)
		p.logf("fleet: %s: offered %s to %s at epoch %d", p.opts.PeerID, job, h.To, h.Epoch)
	}
}

// aliveTargetsLocked lists watched peers currently believed alive,
// sorted for deterministic round-robin spread. Caller holds mu.
func (p *Peer) aliveTargetsLocked() []string {
	var ids []string
	for id, wp := range p.peers {
		if wp.state == PeerAlive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// adoptHandoffs takes over jobs whose handoff records name this peer.
// Adoption runs the ordinary steal path under the record's epoch so a
// raced thief and the target still resolve to exactly one owner; the
// claim budget is deliberately bypassed — keeping a drained peer's
// work live beats fairness, and the load is bounded by what one peer
// could hold.
func (p *Peer) adoptHandoffs(v *view) {
	for job, h := range v.handoffs {
		if h.To != p.opts.PeerID || h.Job != job {
			continue
		}
		if v.results[job] {
			p.removeHandoff(job)
			continue
		}
		p.mu.Lock()
		_, mine := p.owned[job]
		p.mu.Unlock()
		if mine {
			p.removeHandoff(job)
			continue
		}
		// Fresh read, not the view: trySteal must verify against the
		// authoritative tuple.
		l, err := readLease(p.leasePath(job))
		if err != nil {
			continue
		}
		if l.Epoch >= h.Epoch {
			// Consumed or superseded (someone stole at or past the
			// offered epoch).
			p.removeHandoff(job)
			continue
		}
		if l.Epoch != h.Epoch-1 || l.Owner != h.From {
			continue // not the lease state the offer described; leave for GC
		}
		spec, ok := p.claimableSpec(job)
		if !ok {
			continue
		}
		epoch, serr := p.trySteal(job, l)
		if serr != nil {
			continue
		}
		p.ctrHandoffsAdopted.Add(1)
		p.logf("fleet: %s: adopted %s from draining %s at epoch %d", p.opts.PeerID, job, h.From, epoch)
		p.adopt(job, spec, epoch, true)
		p.removeHandoff(job)
	}
}

func (p *Peer) removeHandoff(job string) {
	os.Remove(p.handoffPath(job))
}

// gcLeaseDir ages out control-plane debris on the observation clock:
//
//   - A steal marker whose lease already reached its epoch is spent —
//     the steal completed (the winner's marker-remove lost a race or
//     its host died between rewrite and remove). Removed immediately;
//     a finished job's lease is not in the view, so its markers and
//     handoffs take the 2×TTL path below.
//   - A marker whose epoch is still in the future after 2×TTL marks a
//     thief that died mid-steal. It must go: the O_EXCL creation that
//     makes steals exactly-one-winner also means an abandoned marker
//     blocks that epoch's steal forever, and leases/ would otherwise
//     grow without bound.
//   - A handoff is removed once the lease reaches the offered epoch
//     (consumed, or recovered by expire-and-steal), or after 2×TTL
//     unconsumed — a live target would have adopted within one tick.
//
// Ages are measured from when THIS peer first listed the file, so a
// freshly started peer waits a full 2×TTL before judging anything
// abandoned — conservative, clock-free, and safe against in-flight
// steals which hold markers only for microseconds. The ages kept are
// those of the files this view lists and this pass leaves in place,
// so a file that reappears under a removed name is aged afresh.
func (p *Peer) gcLeaseDir(v *view, now time.Time) {
	ttl := p.opts.LeaseTTL
	kept := make(map[string]time.Time, len(v.markers)+len(v.handoffs))
	age := func(name string) time.Duration {
		first, ok := p.firstSeen[name]
		if !ok {
			first = now
		}
		kept[name] = first
		return now.Sub(first)
	}
	for _, m := range v.markers {
		l, known := v.leases[m.job]
		switch a := age(m.name); {
		case known && l.Epoch >= m.epoch:
			os.Remove(p.stealMarkerPath(m.job, m.epoch))
			delete(kept, m.name)
		case a >= 2*ttl:
			p.logf("fleet: %s: removing abandoned steal marker %s (age %v)", p.opts.PeerID, m.name, a)
			os.Remove(p.stealMarkerPath(m.job, m.epoch))
			delete(kept, m.name)
		}
	}
	for job, h := range v.handoffs {
		a := age(job + ".handoff")
		if h.To == p.opts.PeerID {
			continue // ours to adopt, not to judge
		}
		l, known := v.leases[job]
		if (known && l.Epoch >= h.Epoch) || a >= 2*ttl {
			p.removeHandoff(job)
			delete(kept, job+".handoff")
		}
	}
	p.firstSeen = kept
}
