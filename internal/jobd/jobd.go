// Package jobd is the sim-as-a-service layer: a long-lived,
// fault-tolerant job server that turns the one-shot experiments CLI
// into a supervised sweep service. Jobs (one simulation run each) and
// sweeps (named sets of jobs) are submitted over a small HTTP API,
// executed in submission order by a bounded worker pool, and
// supervised per job with the robustness primitives the repository
// already has:
//
//   - per-job wall-clock timeout and no-progress watchdog window;
//   - bounded retries with capped, seeded-jitter exponential backoff,
//     each retry resuming from the job's last checkpoint
//     (internal/chkpt) instead of replaying from cycle zero;
//   - panic and deadlock isolation: a crashing box surfaces as a
//     core.CrashError black box on the job, never as a dead server;
//   - checkpoint-based preemption: a job that has held a worker for a
//     full quantum while others wait is checkpointed at the next
//     quiesced barrier and requeued, so the pool stays fair;
//   - graceful degradation: SIGTERM drains the pool (in-flight jobs
//     checkpoint, stamp their manifest, and persist as resumable),
//     admission control rejects submits past the queue limit with
//     429 + Retry-After, and disk-write failures degrade the job to a
//     typed failed state instead of crashing the process.
//
// Because checkpoint restore is bit-identical, none of the supervision
// machinery can change results: a sweep that was killed, panicked,
// preempted, drained, and resumed converges to the same per-run stats
// CSVs and sweep summary, byte for byte, as a clean one-shot run. The
// seeded chaos convergence suite asserts exactly that.
package jobd

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"attila/internal/gpu"
	"attila/internal/run"
	"attila/internal/workload"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: waiting for a worker (fresh, or requeued after a
	// drain/restart with a checkpoint to resume from).
	StateQueued State = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning State = "running"
	// StatePreempted: checkpointed and requeued to keep the pool fair,
	// or parked resumable by a drain.
	StatePreempted State = "preempted"
	// StateDone: completed; stats CSV written.
	StateDone State = "done"
	// StateFailed: out of retries (FailKind says how it failed).
	StateFailed State = "failed"
	// StateCanceled: canceled by the user.
	StateCanceled State = "canceled"
	// StateLost: the job's fleet lease was fenced — another peer stole
	// it and owns the result now. Terminal on this server; the job
	// wrote nothing after the fence.
	StateLost State = "lost"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateLost
}

// Failure kinds (JobStatus.FailKind) — the typed taxonomy of how a
// job's attempts died.
const (
	FailPanic    = "panic"    // box panic (core.ErrPanic black box)
	FailDeadlock = "deadlock" // watchdog fired (core.ErrDeadlock)
	FailDisk     = "disk"     // output writes kept failing (ErrDisk)
	FailTimeout  = "timeout"  // per-job wall-clock budget exhausted
	FailKilled   = "killed"   // worker killed mid-run (chaos)
	FailError    = "error"    // any other simulation error
	FailFenced   = "fenced"   // fleet lease lost; aborted without writes
)

// Typed submit failures the HTTP layer maps to status codes.
var (
	// ErrQueueFull: admission control rejected the submit (429).
	ErrQueueFull = errors.New("jobd: queue full")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = errors.New("jobd: server draining")
	// ErrDuplicate: a job with that name already exists (409).
	ErrDuplicate = errors.New("jobd: duplicate job name")
	// ErrNotFound: no such job or sweep (404).
	ErrNotFound = errors.New("jobd: not found")
)

// ErrFenced matches a fencing rejection: the job's fleet lease was
// lost to another peer, so every durable write on the old owner's
// behalf must be refused. The Fence hook (Options.Fence) returns an
// error wrapping this; a fenced job parks as StateLost/FailFenced
// having written nothing past the fence.
var ErrFenced = errors.New("jobd: lease fenced")

// ErrDisk matches (via errors.Is) a *DiskError: an output write that
// kept failing after retries. Jobs degrade to StateFailed/FailDisk on
// it; the server never crashes on a bad disk.
var ErrDisk = errors.New("jobd: disk write failed")

// DiskError is a failed durable write, wrapping the underlying OS
// error and matching ErrDisk.
type DiskError struct {
	Op   string // "stats csv", "manifest", "state"
	Path string
	Err  error
}

func (e *DiskError) Error() string {
	return fmt.Sprintf("jobd: writing %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *DiskError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrDisk) hold for every DiskError.
func (e *DiskError) Is(target error) bool { return target == ErrDisk }

// JobSpec describes one simulation run. Zero fields inherit first from
// the sweep's Defaults, then from the package defaults (the same
// scaled-down case-study settings the experiments CLI uses).
type JobSpec struct {
	// Name uniquely identifies the job on the server; it is also the
	// stem of the job's output files (<name>.csv, <name>-manifest.json).
	Name string `json:"name"`
	// Config names the machine: baseline, baseline-unified (or
	// unified), highend, embedded, or casestudy:<tus>:<window|inorder>.
	Config string `json:"config,omitempty"`
	// Workload is a workload name from internal/workload.
	Workload string `json:"workload,omitempty"`

	Width  int   `json:"width,omitempty"`
	Height int   `json:"height,omitempty"`
	Frames int   `json:"frames,omitempty"`
	Aniso  int   `json:"aniso,omitempty"`
	Seed   int64 `json:"seed,omitempty"`

	// MaxCycles bounds the simulation; 0 inherits the default budget.
	MaxCycles int64 `json:"maxCycles,omitempty"`
	// WatchdogWindow arms the per-job no-progress watchdog; 0 inherits
	// the server default.
	WatchdogWindow int64 `json:"watchdogWindow,omitempty"`
	// TimeoutSec bounds the job's wall clock per attempt; 0 inherits
	// the server default, negative means no limit.
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
	// Retries bounds re-attempts after a failure: 0 inherits the server
	// default, negative means fail fast.
	Retries int `json:"retries,omitempty"`

	// Resume asks the server to keep and use any checkpoint already on
	// disk for this job name instead of starting from cycle zero. The
	// fleet layer sets it when a stolen job migrates to a new peer; a
	// plain fresh submit leaves it false and starts clean.
	Resume bool `json:"resume,omitempty"`
}

// SweepSpec is a named set of jobs submitted and summarized together.
type SweepSpec struct {
	Name string `json:"name"`
	// Defaults fills zero fields of every job in the sweep.
	Defaults JobSpec   `json:"defaults,omitempty"`
	Jobs     []JobSpec `json:"jobs"`
}

// NormalizeSweep validates a sweep spec and returns its fully
// normalized job specs (sweep defaults and package defaults applied),
// without admitting anything. The fleet layer uses it to publish a
// sweep's jobs to the shared work queue exactly as a local server
// would admit them, so a fleet run and a single-host run execute
// identical specs.
func NormalizeSweep(spec SweepSpec) ([]JobSpec, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("jobd: sweep needs a name")
	}
	if spec.Name != run.SanitizeName(spec.Name) {
		return nil, fmt.Errorf("jobd: sweep name %q: only [a-zA-Z0-9.-] allowed", spec.Name)
	}
	if len(spec.Jobs) == 0 {
		return nil, fmt.Errorf("jobd: sweep %s has no jobs", spec.Name)
	}
	norm := make([]JobSpec, len(spec.Jobs))
	seen := make(map[string]bool, len(spec.Jobs))
	for i, js := range spec.Jobs {
		n, err := js.normalize(spec.Defaults)
		if err != nil {
			return nil, err
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("%w: %s (within sweep %s)", ErrDuplicate, n.Name, spec.Name)
		}
		seen[n.Name] = true
		norm[i] = n
	}
	return norm, nil
}

// withDefaults fills s's zero fields from d.
func (s JobSpec) withDefaults(d JobSpec) JobSpec {
	if s.Config == "" {
		s.Config = d.Config
	}
	if s.Workload == "" {
		s.Workload = d.Workload
	}
	if s.Width == 0 {
		s.Width = d.Width
	}
	if s.Height == 0 {
		s.Height = d.Height
	}
	if s.Frames == 0 {
		s.Frames = d.Frames
	}
	if s.Aniso == 0 {
		s.Aniso = d.Aniso
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = d.MaxCycles
	}
	if s.WatchdogWindow == 0 {
		s.WatchdogWindow = d.WatchdogWindow
	}
	if s.TimeoutSec == 0 {
		s.TimeoutSec = d.TimeoutSec
	}
	if s.Retries == 0 {
		s.Retries = d.Retries
	}
	return s
}

// packageDefaults mirrors experiments.DefaultRunParams.
var packageDefaults = JobSpec{
	Config: "baseline", Workload: "simple",
	Width: 192, Height: 144, Frames: 2, Aniso: 8, Seed: 1,
	MaxCycles: 2_000_000_000,
}

// normalize applies defaults and validates the spec.
func (s JobSpec) normalize(sweepDefaults JobSpec) (JobSpec, error) {
	s = s.withDefaults(sweepDefaults).withDefaults(packageDefaults)
	if strings.TrimSpace(s.Name) == "" {
		return s, fmt.Errorf("jobd: job needs a name")
	}
	if s.Name != run.SanitizeName(s.Name) {
		return s, fmt.Errorf("jobd: job name %q: only [a-zA-Z0-9.-] allowed", s.Name)
	}
	if _, err := ResolveConfig(s.Config); err != nil {
		return s, err
	}
	if _, err := workload.Lookup(s.Workload); err != nil {
		return s, err
	}
	if s.Width <= 0 || s.Height <= 0 || s.Frames <= 0 {
		return s, fmt.Errorf("jobd: job %s: width/height/frames must be positive", s.Name)
	}
	return s, nil
}

// ResolveConfig maps a config name to a gpu.Config. The casestudy form
// takes a texture-unit count and scheduling mode:
// "casestudy:2:window" or "casestudy:3:inorder".
func ResolveConfig(name string) (gpu.Config, error) {
	switch name {
	case "", "baseline":
		return gpu.Baseline(), nil
	case "baseline-unified", "unified":
		return gpu.BaselineUnified(), nil
	case "highend":
		return gpu.HighEnd(), nil
	case "embedded":
		return gpu.Embedded(), nil
	}
	if rest, ok := strings.CutPrefix(name, "casestudy:"); ok {
		tusStr, modeStr, ok := strings.Cut(rest, ":")
		if !ok {
			return gpu.Config{}, fmt.Errorf("jobd: config %q: want casestudy:<tus>:<window|inorder>", name)
		}
		tus, err := strconv.Atoi(tusStr)
		if err != nil || tus < 1 {
			return gpu.Config{}, fmt.Errorf("jobd: config %q: bad texture unit count %q", name, tusStr)
		}
		var mode gpu.ScheduleMode
		switch modeStr {
		case "window":
			mode = gpu.ScheduleWindow
		case "inorder":
			mode = gpu.ScheduleInOrderQueue
		default:
			return gpu.Config{}, fmt.Errorf("jobd: config %q: bad schedule mode %q", name, modeStr)
		}
		return gpu.CaseStudy(tus, mode), nil
	}
	return gpu.Config{}, fmt.Errorf("jobd: unknown config %q (want baseline, baseline-unified, highend, embedded, or casestudy:<tus>:<mode>)", name)
}
