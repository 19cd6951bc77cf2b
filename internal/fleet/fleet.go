// Package fleet is the coordinator-free multi-host layer on top of
// the job server (internal/jobd): N peers share a work directory on a
// common filesystem, claim jobs through lease files with a TTL and
// seeded-jitter renewal, and steal work from peers whose leases stop
// renewing. There is no leader and no election — the filesystem's
// atomic link/rename primitives are the only consensus used.
//
// The safety argument has three legs:
//
//   - Liveness is the lease, observed clock-free: lease files carry
//     sequence numbers, never timestamps, and a peer measures
//     staleness only as "unchanged for ≥ TTL of my own monotonic
//     time". Hosts with arbitrarily skewed wall clocks interoperate.
//
//   - Mutual exclusion per epoch: the initial claim is an os.Link
//     (exactly one winner), and a steal must first create an O_EXCL
//     marker naming the next epoch — so for every (job, epoch) there
//     is at most one owner ever.
//
//   - Fencing makes the exclusion durable: the lease epoch is stamped
//     into every checkpoint and manifest, and the owner re-reads the
//     lease immediately before every durable write (jobd's Fence
//     hook). A host that was paused past its TTL and revived — the
//     classic split-brain — finds another peer's name or a higher
//     epoch in the lease file and aborts without writing a byte.
//
// Because the simulator is deterministic and checkpoint restore is
// bit-identical, a stolen job resumed on another host converges to
// the same stats CSV, byte for byte, as an undisturbed run; the
// 3-peer chaos convergence suite asserts exactly that against a clean
// single-host jobd run.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"attila/internal/chaos"
	"attila/internal/jobd"
	"attila/internal/obsv"
)

// jobdErrFenced aliases the jobd sentinel so lease.go's fence errors
// match errors.Is(err, jobd.ErrFenced).
var jobdErrFenced = jobd.ErrFenced

// Options configures one fleet peer.
type Options struct {
	// Dir is the shared fleet work directory (required). Layout:
	//
	//	sweeps/<name>.json     sweep specs, published once
	//	queue/<ss>/<job>.json  one normalized JobSpec per job; ss is queueShard(job)
	//	leases/<job>.json      claim records (owner, epoch, seq)
	//	results/<job>.json     terminal outcomes, written by the owner
	//	out/                   shared job outputs (CSVs, manifests, summary)
	//	checkpoints/           shared checkpoint files jobs migrate through
	Dir string
	// PeerID uniquely names this peer in the fleet (required).
	PeerID string
	// LeaseTTL is how long a lease may go unrenewed before it is
	// stealable. Default 2s. Renewals happen every TTL/3 with seeded
	// jitter so a large fleet's renewals do not stampede in phase.
	LeaseTTL time.Duration
	// Jobd templates the local job server. OutDir/CkptDir/StatePath
	// are overridden to the shared layout; everything else (workers,
	// retries, checkpoint interval, chaos) applies as given.
	Jobd jobd.Options
	// Chaos arms fleet-level faults (killhost, pauseheart, leaseyank)
	// in addition to whatever Jobd.Chaos injects locally.
	Chaos *chaos.ServerPlan
	// MaxClaims bounds how many unfinished jobs this peer holds at
	// once; 0 defaults to 2× the local job server's workers, keeping
	// work spread across the fleet instead of hoarded by whoever scans
	// first.
	MaxClaims int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// ownedJob is a lease this peer currently holds.
type ownedJob struct {
	epoch     int64
	published bool // result file written; lease no longer renewed
}

// Peer is one fleet member: a local jobd server plus the lease,
// steal, and finalize loop.
type Peer struct {
	opts Options
	srv  *jobd.Server
	rng  *rand.Rand

	// finalized remembers sweeps whose summary this peer has verified
	// on disk, so steady-state finalize passes cost zero I/O. Loop
	// goroutine only.
	finalized map[string]bool
	// firstSeen is when this peer first listed each steal marker, by
	// file name: the observation clock the GC pass ages them on.
	// gcLeaseDir owns it and replaces it every pass.
	firstSeen map[string]time.Time

	mu     sync.Mutex
	owned  map[string]*ownedJob
	leases map[string]*observation // per-lease staleness observers
	view   *view                   // the loop's last scan, for FleetStats and Peers

	// Cumulative counters (atomics: bumped from loop and jobd worker
	// goroutines, read by HTTP).
	ctrSteals        atomic.Int64
	ctrFenceRefusals atomic.Int64
	scanReads        atomic.Int64 // control-plane file-content reads

	// Chaos latches.
	killFired  bool
	pauseFired bool
	yankFired  bool
	pausedTill time.Time

	killed   bool
	draining bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewPeer builds a peer; Start creates the directory layout and
// begins the loop.
func NewPeer(opts Options) (*Peer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: Options.Dir is required")
	}
	if opts.PeerID == "" {
		return nil, fmt.Errorf("fleet: Options.PeerID is required")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	jo := opts.Jobd
	jo.OutDir = filepath.Join(opts.Dir, "out")
	jo.CkptDir = filepath.Join(opts.Dir, "checkpoints")
	// The state file is per peer: the output tree is shared, the
	// server's private queue is not.
	jo.StatePath = filepath.Join(opts.Dir, fmt.Sprintf("jobd-state-%s.json", opts.PeerID))
	jo.PeerID = opts.PeerID
	if opts.Logf != nil && jo.Logf == nil {
		jo.Logf = opts.Logf
	}
	p := &Peer{
		opts:   opts,
		owned:  make(map[string]*ownedJob),
		leases: make(map[string]*observation),
		stopCh: make(chan struct{}),
	}
	p.finalized = make(map[string]bool)
	// Seeded jitter: the tick phase is deterministic per (chaos seed,
	// peer ID), never wall-clock derived, so chaos runs reproduce.
	seed := int64(1)
	if opts.Chaos != nil {
		seed = opts.Chaos.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(opts.PeerID))
	p.rng = rand.New(rand.NewSource(seed + int64(h.Sum64()&0x7fffffff)))
	jo.Fence = p.fenceCheck
	jo.LeaseEpoch = p.leaseEpoch
	p.srv = jobd.New(jo)
	if opts.MaxClaims <= 0 {
		p.opts.MaxClaims = 2 * p.srv.Workers()
	}
	return p, nil
}

func (p *Peer) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// Server exposes the local job server (for HTTP mounting and tests).
func (p *Peer) Server() *jobd.Server { return p.srv }

// LeaseTTL reports the effective lease TTL after defaulting.
func (p *Peer) LeaseTTL() time.Duration { return p.opts.LeaseTTL }

// Start creates the shared layout, starts the local job server, and
// launches the peer loop.
func (p *Peer) Start() error {
	for _, sub := range []string{"sweeps", "queue", "leases", "results", "out", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(p.opts.Dir, sub), 0o755); err != nil {
			return err
		}
	}
	if err := p.srv.Start(); err != nil {
		return err
	}
	p.wg.Add(1)
	go p.loop()
	return nil
}

// drainGrace bounds the implicit drain Close performs when the caller
// has not drained explicitly: long enough for a checkpoint barrier,
// short enough that shutdown never hangs on a wedged job.
const drainGrace = 30 * time.Second

// Close gracefully stops the peer. Unless the peer was killed (or
// already drained), Close first runs the drain path. The leases it
// held are left in place to go stale: after a TTL any peer steals
// them, a restarted peer with the same ID included, and resumes each
// job from its checkpoint.
func (p *Peer) Close() error {
	p.mu.Lock()
	skip := p.killed || p.draining
	p.mu.Unlock()
	if skip {
		p.stopLoop()
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
		_ = p.Drain(ctx)
		cancel()
	}
	return p.srv.Close()
}

// Drain gracefully winds the peer down: the local jobd checkpoints
// and parks every running job (while this peer's loop keeps renewing
// their leases, so nothing is stolen mid-checkpoint), then the loop
// stops. The leases go stale together and are stolen at the next
// epoch, exactly as a dead peer's are. Safe to call more than once;
// Close calls it with a default grace period if the caller has not.
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

// Kill simulates this host dying: the local job server halts with
// every durable write suppressed (jobd.Server.Kill) and the peer loop
// stops mid-tick — no lease release. The rest of the fleet finds out
// the only way a real crash lets it: the lease files stop changing.
// Chaos killhost and the fleet-smoke test both use this.
func (p *Peer) Kill() {
	p.mu.Lock()
	p.killed = true
	p.mu.Unlock()
	p.srv.Kill()
	p.stopLoop()
}

// tick returns the next loop delay: TTL/3 with ±25% seeded jitter.
func (p *Peer) tick() time.Duration {
	base := p.opts.LeaseTTL / 3
	jitter := time.Duration(p.rng.Int63n(int64(base)/2+1)) - base/4
	return base + jitter
}

// loop is the peer's renew-claim-steal-finalize cycle.
func (p *Peer) loop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stopCh:
			return
		case <-time.After(p.tick()):
		}
		now := time.Now()
		p.fireChaos(now)
		p.mu.Lock()
		paused := now.Before(p.pausedTill)
		killed := p.killed
		p.mu.Unlock()
		if killed {
			return
		}
		if paused {
			// pauseheart: the whole control loop is stalled — no
			// renewals, no claims, no steals — while the local
			// simulations keep running. The rest of the fleet sees our
			// leases stop changing and takes them; the fence catches our
			// writes in the meantime.
			continue
		}
		v := p.scan()
		p.renewOwned()
		p.gcLeaseDir(v, now)
		p.scanQueue(v, now)
		p.publishResults()
		p.finalizeSweeps(v)
		p.mu.Lock()
		p.view = v
		p.mu.Unlock()
	}
}

// fireChaos checks the fleet-level fault triggers against local job
// progress. Triggers key on deterministic simulation cycles, so a
// fault lands at the same point in the workload every run (modulo the
// polling cadence — which cannot affect final output bytes, because
// recovery converges from checkpoints regardless of where the fault
// lands).
func (p *Peer) fireChaos(now time.Time) {
	plan := p.opts.Chaos
	if plan == nil {
		return
	}
	statuses := p.srv.Jobs()
	if f := plan.KillHostFor(p.opts.PeerID); f != nil {
		p.mu.Lock()
		fired := p.killFired
		p.mu.Unlock()
		if !fired {
			for _, st := range statuses {
				if st.State == jobd.StateRunning && st.Cycle >= f.Cycle {
					p.mu.Lock()
					p.killFired = true
					p.killed = true
					p.mu.Unlock()
					p.logf("fleet: chaos: killing host %s at job %s cycle %d", p.opts.PeerID, st.Name, st.Cycle)
					p.srv.Kill()
					return
				}
			}
		}
	}
	if f := plan.PauseHeartFor(p.opts.PeerID); f != nil {
		p.mu.Lock()
		fired := p.pauseFired
		p.mu.Unlock()
		if !fired {
			for _, st := range statuses {
				if st.State == jobd.StateRunning && st.Cycle >= f.Cycle {
					p.mu.Lock()
					p.pauseFired = true
					p.pausedTill = now.Add(f.Dur)
					p.mu.Unlock()
					p.logf("fleet: chaos: pausing %s control loop for %v at job %s cycle %d",
						p.opts.PeerID, f.Dur, st.Name, st.Cycle)
					return
				}
			}
		}
	}
	if plan.LeaseYank != nil {
		job := plan.LeaseYank.Job
		p.mu.Lock()
		fired := p.yankFired
		mine := p.owned[job] != nil
		p.mu.Unlock()
		if !fired && mine {
			for _, st := range statuses {
				if st.Name == job && st.State == jobd.StateRunning && st.Cycle > 0 {
					p.mu.Lock()
					p.yankFired = true
					p.mu.Unlock()
					p.logf("fleet: chaos: yanking lease of %s out from under %s", job, p.opts.PeerID)
					if err := p.yankLease(job); err != nil {
						p.logf("fleet: chaos: leaseyank failed: %v", err)
					}
					return
				}
			}
		}
	}
}

// renewOwned republishes every held lease; a lease that no longer
// names this peer means we were fenced — the job aborts locally and
// its new owner keeps the bytes.
func (p *Peer) renewOwned() {
	p.mu.Lock()
	jobs := make(map[string]*ownedJob, len(p.owned))
	for name, oj := range p.owned {
		jobs[name] = oj
	}
	p.mu.Unlock()
	for name, oj := range jobs {
		if oj.published {
			continue // done and recorded; let the lease age into a tombstone
		}
		if err := p.renewLease(name, oj.epoch); err != nil {
			p.logf("fleet: %s: lost lease on %s: %v", p.opts.PeerID, name, err)
			p.mu.Lock()
			delete(p.owned, name)
			p.mu.Unlock()
			_ = p.srv.FenceJob(name)
		}
	}
}

// scanQueue claims unleased jobs and steals expired leases, up to the
// claim budget. Candidates are the jobs the view's sweep records name,
// in record order with sweeps sorted by name, so claims go in sweep
// order. A spec file no record names (a crashed submit's debris, or a
// stray file) is never a candidate: nothing would ever summarize it.
func (p *Peer) scanQueue(v *view, now time.Time) {
	for _, rec := range v.sweeps {
		for _, job := range rec.Jobs {
			if v.results[job] {
				continue
			}
			p.mu.Lock()
			_, mine := p.owned[job]
			budget := p.claimBudgetLocked()
			p.mu.Unlock()
			if mine || budget <= 0 {
				continue
			}
			l, known := v.leases[job]
			switch {
			case !known:
				// Unclaimed as of this tick's view: race for the initial
				// lease. A lease created since the scan just makes the
				// os.Link lose with ErrExist.
				spec, ok := p.claimableSpec(job)
				if !ok {
					continue
				}
				epoch, cerr := p.tryClaim(job)
				if cerr != nil {
					continue
				}
				p.adopt(job, spec, epoch, false)
			default:
				// Held, but not by this peer's live state: steal only
				// after observing its (owner, epoch, seq) unchanged for a
				// full TTL on our own clock. That includes a lease naming
				// this peer's own ID, left by an earlier process that was
				// closed or killed: nobody else renews it either.
				p.mu.Lock()
				obs := p.leases[job]
				if obs == nil {
					obs = &observation{}
					p.leases[job] = obs
				}
				stale := obs.observe(leaseKey(l), now)
				p.mu.Unlock()
				if stale < p.opts.LeaseTTL {
					continue
				}
				spec, ok := p.claimableSpec(job)
				if !ok {
					continue
				}
				epoch, serr := p.trySteal(job, l)
				if serr != nil {
					// Lost the steal race: back off and re-observe the
					// winner's renewals from scratch.
					p.mu.Lock()
					delete(p.leases, job)
					p.mu.Unlock()
					continue
				}
				p.ctrSteals.Add(1)
				p.logf("fleet: %s: stole %s from %s at epoch %d", p.opts.PeerID, job, l.Owner, epoch)
				p.adopt(job, spec, epoch, true)
			}
		}
	}
}

// claimableSpec reads a job's spec before any claim or steal of it. A
// lease taken on a job whose spec cannot be read would be held by a
// peer that never runs or renews it, then stolen and abandoned the
// same way every TTL. A missing spec is usually a publish still in
// flight; the job is tried again next tick.
func (p *Peer) claimableSpec(job string) (jobd.JobSpec, bool) {
	spec, err := p.readJobSpec(job)
	p.scanReads.Add(1)
	if err != nil {
		p.logf("fleet: %s: not claiming %s: %v", p.opts.PeerID, job, err)
		return jobd.JobSpec{}, false
	}
	return spec, true
}

// claimBudgetLocked is how many more jobs this peer may hold.
func (p *Peer) claimBudgetLocked() int {
	held := 0
	for _, oj := range p.owned {
		if !oj.published {
			held++
		}
	}
	return p.opts.MaxClaims - held
}

// adopt records ownership and hands the job to the local jobd server.
// A stolen job resumes from whatever checkpoint its previous owner
// last managed to write (Resume=true keeps the shared checkpoint
// file); a fresh claim starts clean.
func (p *Peer) adopt(job string, spec jobd.JobSpec, epoch int64, stolen bool) {
	spec.Resume = stolen
	p.mu.Lock()
	p.owned[job] = &ownedJob{epoch: epoch}
	delete(p.leases, job)
	p.mu.Unlock()
	if _, err := p.srv.ResubmitJob(spec); err != nil {
		p.logf("fleet: %s: submitting claimed job %s: %v", p.opts.PeerID, job, err)
	}
}

// publishResults records terminal outcomes of owned jobs in the
// shared results directory. The write is fence-checked like every
// other durable write; after it lands the lease stops being renewed
// and becomes a tombstone (stealers check for the result first).
func (p *Peer) publishResults() {
	p.mu.Lock()
	pending := make([]string, 0, len(p.owned))
	for name, oj := range p.owned {
		if !oj.published {
			pending = append(pending, name)
		}
	}
	p.mu.Unlock()
	for _, name := range pending {
		st, err := p.srv.JobStatus(name)
		if err != nil || !terminalState(st.State) {
			continue
		}
		if st.State == jobd.StateLost {
			// We were fenced mid-run; the thief publishes, not us.
			p.mu.Lock()
			delete(p.owned, name)
			p.mu.Unlock()
			continue
		}
		if err := p.fenceCheck(name); err != nil {
			p.logf("fleet: %s: result for %s refused: %v", p.opts.PeerID, name, err)
			continue
		}
		if err := p.writeResult(name, st); err != nil {
			p.logf("fleet: %s: result write for %s failed: %v", p.opts.PeerID, name, err)
			continue
		}
		p.mu.Lock()
		p.owned[name].published = true
		p.mu.Unlock()
	}
}

// lastView is the view the loop stored after its last tick; before the
// first tick it is a scan of its own.
func (p *Peer) lastView() *view {
	p.mu.Lock()
	v := p.view
	p.mu.Unlock()
	if v == nil {
		v = p.scan()
	}
	return v
}

// FleetStats snapshots this peer's control-plane view for the
// /metrics.prom fleet families. Queued and finalized jobs come from
// the loop's last view; owned jobs are this peer's own state; counters
// are live atomics.
func (p *Peer) FleetStats() *obsv.FleetStats {
	f := &obsv.FleetStats{Peer: p.opts.PeerID}
	v := p.lastView()
	queued := make(map[string]bool)
	for _, rec := range v.sweeps {
		for _, job := range rec.Jobs {
			if !v.results[job] {
				queued[job] = true
			}
		}
	}
	f.QueuedJobs = len(queued)
	f.FinalizedJobs = len(v.results)
	p.mu.Lock()
	for _, oj := range p.owned {
		if !oj.published {
			f.OwnedJobs++
		}
	}
	p.mu.Unlock()
	f.Steals = p.ctrSteals.Load()
	f.FenceRefusals = p.ctrFenceRefusals.Load()
	f.ScanReads = p.scanReads.Load()
	return f
}

func terminalState(s jobd.State) bool {
	switch s {
	case jobd.StateDone, jobd.StateFailed, jobd.StateCanceled, jobd.StateLost:
		return true
	}
	return false
}
