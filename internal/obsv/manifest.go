package obsv

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"attila/internal/fsatomic"
)

// Manifest records everything needed to reproduce and audit a run:
// the tool and its arguments, the resolved flag set, the workload,
// the build's VCS state, the host, and the outcome. attilasim writes
// one `run-manifest.json` next to every output set so a directory of
// results stays self-describing.
type Manifest struct {
	Tool   string            `json:"tool"`
	Args   []string          `json:"args"`
	Flags  map[string]string `json:"flags,omitempty"`
	Trace  string            `json:"trace,omitempty"`
	Config string            `json:"config,omitempty"`
	Seed   int64             `json:"seed,omitempty"`

	// Tracing records the span-sampling configuration when request
	// tracing was on, so a result directory says which spans it kept.
	Tracing *TracingConfig `json:"tracing,omitempty"`

	Version   string `json:"version,omitempty"` // VCS revision (+dirty)
	GoVersion string `json:"goVersion"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	Hostname  string `json:"hostname,omitempty"`

	Start    time.Time `json:"start"`
	Stop     time.Time `json:"stop,omitempty"`
	WallSecs float64   `json:"wallSecs,omitempty"`

	Cycles   int64    `json:"cycles,omitempty"`
	Frames   int64    `json:"frames,omitempty"`
	ExitCode int      `json:"exitCode"`
	Error    string   `json:"error,omitempty"`
	Outputs  []string `json:"outputs,omitempty"`

	// State is the job lifecycle state a supervised run was stamped
	// with (internal/jobd): "done", "failed", "canceled", or
	// "preempted" when a drain or fairness preemption parked the job
	// resumable mid-run.
	State string `json:"state,omitempty"`

	// Restore/retry bookkeeping. A run resumed from a checkpoint stamps
	// where it resumed from and keeps the failed attempts' outcomes in
	// Previous instead of silently overwriting them.
	Attempt        int           `json:"attempt,omitempty"`             // 1-based; 0 means first (only) attempt
	RestoredFrom   string        `json:"restoredFrom,omitempty"`        // checkpoint file this run resumed from
	RestoredCycle  int64         `json:"restoredCycle,omitempty"`       // cycle the restore landed on
	Checkpoints    int64         `json:"checkpoints,omitempty"`         // checkpoints written by this run
	LastCheckpoint int64         `json:"lastCheckpointCycle,omitempty"` // cycle of the newest checkpoint
	Previous       []PreviousRun `json:"previousRuns,omitempty"`        // earlier attempts of the same run
}

// TracingConfig is the span-sampling configuration recorded in the
// manifest: the 1/N sample rate, the sampler seed, and the latency
// histogram's fixed bucket count.
type TracingConfig struct {
	SampleRate uint64 `json:"sampleRate"` // 1-in-N spans kept
	Seed       uint64 `json:"seed"`       // sampler hash seed
	Buckets    int    `json:"buckets"`    // log2 histogram bucket count
}

// PreviousRun summarizes an earlier attempt of the same logical run:
// enough to audit what failed and when, without keeping the full
// manifest of every attempt.
type PreviousRun struct {
	Attempt  int       `json:"attempt,omitempty"`
	Args     []string  `json:"args,omitempty"`
	Start    time.Time `json:"start"`
	Stop     time.Time `json:"stop,omitempty"`
	Cycles   int64     `json:"cycles,omitempty"`
	ExitCode int       `json:"exitCode"`
	Error    string    `json:"error,omitempty"`
	Outputs  []string  `json:"outputs,omitempty"`
}

// NewManifest starts a manifest for the current process: tool name,
// arguments, resolved flags, build/host identity, and the start
// timestamp. fs may be nil to skip flag capture.
func NewManifest(tool string, fs *flag.FlagSet) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Args:      append([]string(nil), os.Args[1:]...),
		Version:   GitDescribe(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Start:     time.Now(),
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	if fs != nil {
		m.Flags = make(map[string]string)
		fs.VisitAll(func(f *flag.Flag) {
			m.Flags[f.Name] = f.Value.String()
		})
	}
	return m
}

// Finish stamps the outcome: stop time, wall-clock duration, exit
// code, and the error (if any).
func (m *Manifest) Finish(exitCode int, err error) {
	m.Stop = time.Now()
	m.WallSecs = m.Stop.Sub(m.Start).Seconds()
	m.ExitCode = exitCode
	if err != nil {
		m.Error = err.Error()
	}
}

// LoadManifest reads a previously written run-manifest.json. Used by
// the restore path to preserve the failed attempt's record instead of
// overwriting it.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// AbsorbPrevious folds an earlier attempt's manifest into this one:
// the earlier attempt (and any attempts it had absorbed) land in
// Previous, and this manifest's Attempt counter advances past it.
func (m *Manifest) AbsorbPrevious(prev *Manifest) {
	if prev == nil {
		return
	}
	m.Previous = append(m.Previous, prev.Previous...)
	pa := prev.Attempt
	if pa == 0 {
		pa = 1
	}
	m.Previous = append(m.Previous, PreviousRun{
		Attempt:  pa,
		Args:     prev.Args,
		Start:    prev.Start,
		Stop:     prev.Stop,
		Cycles:   prev.Cycles,
		ExitCode: prev.ExitCode,
		Error:    prev.Error,
		Outputs:  prev.Outputs,
	})
	m.Attempt = pa + 1
}

// WriteFile serializes the manifest as indented JSON at path,
// atomically: a kill mid-write leaves the previous manifest, never a
// torn one that a later -restore would fail to fold into its history.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, append(data, '\n'))
}

// GitDescribe returns the VCS revision baked into the binary by the
// Go toolchain ("<rev>" or "<rev>+dirty"), or "" for builds without
// VCS stamping (e.g. `go test` binaries).
func GitDescribe() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
