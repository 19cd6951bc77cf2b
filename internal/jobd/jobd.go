// Package jobd is the supervised sweep runner: it runs a named set of
// jobs (one simulation run each) on a bounded worker pool of one host,
// in submission order, writes every result to one output directory,
// and supervises each job with the robustness primitives the
// repository already has:
//
//   - a wall-clock timeout per attempt and a no-progress watchdog
//     window, one each for every job;
//   - a bounded number of immediate retries, each resuming from the
//     job's last checkpoint (internal/chkpt) instead of replaying from
//     cycle zero;
//   - panic and deadlock isolation: a crashing box surfaces as a
//     core.CrashError black box in the job's <name>-crash.json, never
//     as a dead process;
//   - graceful degradation: SIGTERM drains the pool (in-flight jobs
//     checkpoint, stamp their manifest "preempted", and persist as
//     resumable), and disk-write failures degrade the job to a typed
//     failed state instead of crashing the process.
//
// Because checkpoint restore is bit-identical, none of the supervision
// machinery can change results: a sweep that was killed, panicked,
// drained, and resumed converges to the same per-run stats CSVs and
// sweep summary, byte for byte, as a clean one-shot run. The seeded
// chaos convergence suite asserts exactly that.
package jobd

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
	// StatePreempted: parked resumable by a drain, the state its
	// manifest is stamped with.
	StatePreempted State = "preempted"
	// StateDone: completed; stats CSV written.
	StateDone State = "done"
	// StateFailed: out of retries (FailKind says how it failed).
	StateFailed State = "failed"
	// StateCanceled: stopped by Close while it ran.
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
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
)

// Typed submit and lookup failures.
var (
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("jobd: server draining")
	// ErrDuplicate: a job with that name already exists.
	ErrDuplicate = errors.New("jobd: duplicate job name")
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("jobd: not found")
)

// ErrDisk matches (via errors.Is) a *DiskError: an output write that
// kept failing after retries. Jobs degrade to StateFailed/FailDisk on
// it; the server never crashes on a bad disk.
var ErrDisk = errors.New("jobd: disk write failed")

// DiskError is a failed durable write, wrapping the underlying OS
// error and matching ErrDisk.
type DiskError struct {
	Op   string // "stats csv", "manifest", "sweep summary", ...
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
// the sweep's Defaults, then from run.Defaults (the settings the
// experiments CLI uses) on the baseline machine running "simple".
type JobSpec struct {
	// Name uniquely identifies the job in its sweep; it is also the
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

	// MaxCycles bounds the simulation; 0 inherits the default budget
	// (run.MaxCycles), and a negative budget is refused.
	MaxCycles int64 `json:"maxCycles,omitempty"`
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
// without admitting anything: exactly the specs a server would run.
// The benchmark uses it to run a sweep's jobs without a server, as the
// baseline that jobd's supervision overhead is measured against.
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
	s.Config = cmp.Or(s.Config, d.Config)
	s.Workload = cmp.Or(s.Workload, d.Workload)
	s.Width = cmp.Or(s.Width, d.Width)
	s.Height = cmp.Or(s.Height, d.Height)
	s.Frames = cmp.Or(s.Frames, d.Frames)
	s.Aniso = cmp.Or(s.Aniso, d.Aniso)
	s.Seed = cmp.Or(s.Seed, d.Seed)
	s.MaxCycles = cmp.Or(s.MaxCycles, d.MaxCycles)
	return s
}

// packageDefaults are run.Defaults on the baseline machine running the
// simple workload.
func packageDefaults() JobSpec {
	d := run.Defaults()
	return JobSpec{Config: "baseline", Workload: "simple", Width: d.Width, Height: d.Height,
		Frames: d.Frames, Aniso: d.Aniso, Seed: d.Seed, MaxCycles: run.MaxCycles}
}

// normalize applies defaults and validates the spec.
func (s JobSpec) normalize(sweepDefaults JobSpec) (JobSpec, error) {
	s = s.withDefaults(sweepDefaults).withDefaults(packageDefaults())
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
	if s.Width <= 0 || s.Height <= 0 || s.Frames <= 0 || s.MaxCycles <= 0 {
		return s, fmt.Errorf("jobd: job %s: width/height/frames/maxCycles must be positive", s.Name)
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

// ParseSweepFile reads a SweepSpec from a JSON file.
func ParseSweepFile(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, err
	}
	var spec SweepSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return SweepSpec{}, fmt.Errorf("jobd: sweep spec %s: %w", path, err)
	}
	return spec, nil
}
