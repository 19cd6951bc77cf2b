package chaos

import (
	"fmt"
	"strconv"
	"strings"
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

// ParseServer builds a ServerPlan from a comma-separated spec:
//
//	seed=N                 rng seed (default 1)
//	kill=JOB@CYCLE         abort JOB's worker at CYCLE (first attempt)
//	panic=JOB@CYCLE[:BOX]  panic inside BOX of JOB at CYCLE (first attempt)
//	yank=JOB               remove the output directory when JOB completes
//
// Each fault key may appear once.
func ParseServer(spec string) (*ServerPlan, error) {
	p := &ServerPlan{Seed: 1}
	seen := make(map[string]bool)
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
		if err := once(seen, key); err != nil {
			return nil, err
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
		default:
			return nil, fmt.Errorf("chaos: unknown server fault %q", key)
		}
	}
	if p.Kill == nil && p.Panic == nil && p.Yank == nil {
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
	return strings.Join(parts, ",")
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
