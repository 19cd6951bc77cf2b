package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ServerPlan describes deterministic faults injected at the job-server
// layer (internal/jobd) rather than inside one simulation: killing the
// worker that runs a named job mid-run, injecting a box panic into a
// named job's first attempt, and yanking the sweep's output directory
// out from under the server. Like Plan, everything is keyed to
// deterministic events (cycles of a seeded run, a named job's
// completion), so a chaos failure reproduces exactly and the seeded
// convergence suite can assert byte-identical final results.
type ServerPlan struct {
	Seed int64
	// Kill aborts the worker running the named job once its simulation
	// reaches the cycle, on the job's first attempt only — the
	// in-process stand-in for a worker process dying mid-run. The job
	// must recover by resuming from its last checkpoint.
	Kill *KillFault
	// Panic injects a box panic (a Plan panic fault) into the named
	// job's first attempt.
	Panic *JobPanicFault
	// Yank removes the server's output directory right after the named
	// job first completes: every stats CSV written so far disappears
	// and in-flight checkpoint/manifest writes start failing until
	// their writers recreate the tree.
	Yank *YankFault

	// Fleet-level faults (internal/fleet). These key on peer IDs and
	// lease-held jobs rather than local workers:

	// KillHost kills the named peer outright once any job it is running
	// reaches the cycle: lease renewals stop, running simulations halt,
	// and every durable write path is suppressed — the in-process
	// stand-in for a host dying. Surviving peers must see its leases go
	// stale, steal them, and finish its jobs from their last
	// checkpoints.
	KillHost *HostKillFault
	// PauseHeart stalls the named peer's control loop — lease renewals,
	// claims and steals — for the duration while its simulations keep
	// running: the classic GC-pause/network-partition scenario that
	// forces the fencing path. Peers steal the paused host's leases, and
	// the revived host must detect the lost lease and abort without
	// writing stale-epoch outputs. The name is kept so existing plans
	// parse.
	PauseHeart *PauseHeartFault
	// LeaseYank invalidates the named job's lease out from under its
	// owner mid-run (the lease file is rewritten to a dead owner): the
	// owner fences itself at its next renewal and the job is stolen and
	// finished elsewhere.
	LeaseYank *LeaseYankFault
}

// KillFault aborts the named job's worker at a cycle of its first
// attempt.
type KillFault struct {
	Job   string
	Cycle int64
}

// JobPanicFault panics inside a box of the named job at a cycle of its
// first attempt.
type JobPanicFault struct {
	Job   string
	Cycle int64
	Box   string // empty means CommandProcessor
}

// YankFault removes the output directory after the named job first
// completes.
type YankFault struct {
	Job string
}

// HostKillFault kills the named fleet peer once any job it runs
// reaches the cycle.
type HostKillFault struct {
	Peer  string
	Cycle int64
}

// PauseHeartFault stalls the named peer's control loop (renewals,
// claims, steals) for Dur once any job it runs reaches the cycle,
// without stopping its simulations.
type PauseHeartFault struct {
	Peer  string
	Cycle int64
	Dur   time.Duration
}

// LeaseYankFault invalidates the named job's lease while its owner is
// mid-run.
type LeaseYankFault struct {
	Job string
}

// ParseServer builds a ServerPlan from a comma-separated spec:
//
//	seed=N                 rng seed (default 1)
//	kill=JOB@CYCLE         abort JOB's worker at CYCLE (first attempt)
//	panic=JOB@CYCLE[:BOX]  panic inside BOX of JOB at CYCLE (first attempt)
//	yank=JOB               remove the output directory when JOB completes
//	killhost=PEER@CYCLE    kill fleet peer PEER once a job it runs hits CYCLE
//	pauseheart=PEER@CYCLE:DUR  stall PEER's control loop (renewals, claims, steals) for DUR (e.g. 2s)
//	leaseyank=JOB          invalidate JOB's lease under its owner mid-run
func ParseServer(spec string) (*ServerPlan, error) {
	p := &ServerPlan{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("chaos: empty server spec")
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q", val)
			}
			p.Seed = n
		case "kill":
			job, cycleStr, ok := strings.Cut(val, "@")
			if !ok || job == "" {
				return nil, fmt.Errorf("chaos: kill wants JOB@CYCLE, got %q", val)
			}
			c, err := strconv.ParseInt(cycleStr, 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("chaos: bad kill cycle %q", cycleStr)
			}
			p.Kill = &KillFault{Job: job, Cycle: c}
		case "panic":
			job, rest, ok := strings.Cut(val, "@")
			if !ok || job == "" {
				return nil, fmt.Errorf("chaos: panic wants JOB@CYCLE[:BOX], got %q", val)
			}
			cycleStr, box, _ := strings.Cut(rest, ":")
			c, err := strconv.ParseInt(cycleStr, 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("chaos: bad panic cycle %q", cycleStr)
			}
			if box == "" {
				box = "CommandProcessor"
			}
			p.Panic = &JobPanicFault{Job: job, Cycle: c, Box: box}
		case "yank":
			if val == "" {
				return nil, fmt.Errorf("chaos: yank wants a job name")
			}
			p.Yank = &YankFault{Job: val}
		case "killhost":
			peer, cycleStr, ok := strings.Cut(val, "@")
			if !ok || peer == "" {
				return nil, fmt.Errorf("chaos: killhost wants PEER@CYCLE, got %q", val)
			}
			c, err := strconv.ParseInt(cycleStr, 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("chaos: bad killhost cycle %q", cycleStr)
			}
			p.KillHost = &HostKillFault{Peer: peer, Cycle: c}
		case "pauseheart":
			peer, rest, ok := strings.Cut(val, "@")
			if !ok || peer == "" {
				return nil, fmt.Errorf("chaos: pauseheart wants PEER@CYCLE:DUR, got %q", val)
			}
			cycleStr, durStr, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("chaos: pauseheart wants PEER@CYCLE:DUR, got %q", val)
			}
			c, err := strconv.ParseInt(cycleStr, 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("chaos: bad pauseheart cycle %q", cycleStr)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaos: bad pauseheart duration %q", durStr)
			}
			p.PauseHeart = &PauseHeartFault{Peer: peer, Cycle: c, Dur: d}
		case "leaseyank":
			if val == "" {
				return nil, fmt.Errorf("chaos: leaseyank wants a job name")
			}
			p.LeaseYank = &LeaseYankFault{Job: val}
		default:
			return nil, fmt.Errorf("chaos: unknown server fault %q", key)
		}
	}
	if p.Kill == nil && p.Panic == nil && p.Yank == nil &&
		p.KillHost == nil && p.PauseHeart == nil && p.LeaseYank == nil {
		return nil, fmt.Errorf("chaos: server spec %q names no fault", spec)
	}
	return p, nil
}

// String renders the plan for logs and manifests.
func (p *ServerPlan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.Kill != nil {
		parts = append(parts, fmt.Sprintf("kill=%s@%d", p.Kill.Job, p.Kill.Cycle))
	}
	if p.Panic != nil {
		parts = append(parts, fmt.Sprintf("panic=%s@%d:%s", p.Panic.Job, p.Panic.Cycle, p.Panic.Box))
	}
	if p.Yank != nil {
		parts = append(parts, fmt.Sprintf("yank=%s", p.Yank.Job))
	}
	if p.KillHost != nil {
		parts = append(parts, fmt.Sprintf("killhost=%s@%d", p.KillHost.Peer, p.KillHost.Cycle))
	}
	if p.PauseHeart != nil {
		parts = append(parts, fmt.Sprintf("pauseheart=%s@%d:%s", p.PauseHeart.Peer, p.PauseHeart.Cycle, p.PauseHeart.Dur))
	}
	if p.LeaseYank != nil {
		parts = append(parts, fmt.Sprintf("leaseyank=%s", p.LeaseYank.Job))
	}
	return strings.Join(parts, ",")
}

// KillHostFor returns the host-kill fault targeting the named peer, or
// nil.
func (p *ServerPlan) KillHostFor(peer string) *HostKillFault {
	if p == nil || p.KillHost == nil || p.KillHost.Peer != peer {
		return nil
	}
	return p.KillHost
}

// PauseHeartFor returns the control-loop stall fault targeting the named
// peer, or nil.
func (p *ServerPlan) PauseHeartFor(peer string) *PauseHeartFault {
	if p == nil || p.PauseHeart == nil || p.PauseHeart.Peer != peer {
		return nil
	}
	return p.PauseHeart
}

// LeaseYankFor reports whether the named job's lease should be yanked
// out from under its owner.
func (p *ServerPlan) LeaseYankFor(job string) bool {
	return p != nil && p.LeaseYank != nil && p.LeaseYank.Job == job
}

// PanicPlan returns the simulation-level fault plan to wire into the
// named job's first attempt, or nil when this plan does not target it.
func (p *ServerPlan) PanicPlan(job string) *Plan {
	if p == nil || p.Panic == nil || p.Panic.Job != job {
		return nil
	}
	return &Plan{Seed: p.Seed, Panic: &PanicFault{Cycle: p.Panic.Cycle, Box: p.Panic.Box}}
}

// KillFor returns the kill fault targeting the named job, or nil.
func (p *ServerPlan) KillFor(job string) *KillFault {
	if p == nil || p.Kill == nil || p.Kill.Job != job {
		return nil
	}
	return p.Kill
}

// YankAfter reports whether the output directory should be removed
// once the named job completes.
func (p *ServerPlan) YankAfter(job string) bool {
	return p != nil && p.Yank != nil && p.Yank.Job == job
}
