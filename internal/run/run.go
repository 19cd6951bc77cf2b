// Package run assembles one simulation run: everything between "I know
// what to simulate" and "the clock loop returned". It is the one place
// that builds the machine and hangs observers on it, for cmd/attilasim,
// internal/experiments and internal/jobd alike. Callers keep what is
// theirs (flags, jobd's retries and supervision, artifacts); the attach order,
// the resume decision and the restore checks live here once.
package run

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"attila/internal/chaos"
	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/workload"
)

// Source yields the command stream a run executes and the fingerprint
// its checkpoints carry (chkpt.Meta.Workload): a checkpoint indexes into
// the stream, so it restores only against the stream that wrote it.
type Source func(p *gpu.Pipeline) (cmds []gpu.Command, fingerprint string, err error)

// Workload builds the named synthetic workload against the run's own
// pipeline — deterministically, so every attempt sees the identical
// stream. The fingerprint is the workload name.
func Workload(name string, p workload.Params) Source {
	return func(pipe *gpu.Pipeline) ([]gpu.Command, string, error) {
		cmds, _, err := workload.Build(name, pipe, p)
		return cmds, name, err
	}
}

// Commands is a stream read beforehand (a trace file) with the
// fingerprint its reader derived from it.
func Commands(cmds []gpu.Command, fingerprint string) Source {
	return func(*gpu.Pipeline) ([]gpu.Command, string, error) { return cmds, fingerprint, nil }
}

// Defaults are the run parameters of a caller that names none
// (experiments, jobd's job specs): the case study scaled down so each
// configuration runs in seconds; the paper ran 1024x768 over 40 frames.
func Defaults() workload.Params {
	return workload.Params{Width: 192, Height: 144, Frames: 2, Aniso: 8, Seed: 1}
}

// MaxCycles is the default cycle budget, generous for the scaled-down
// workloads.
const MaxCycles = 2_000_000_000

// Checkpoint is a run's periodic checkpointing: the file each capture
// atomically replaces and the minimum cycle distance between captures
// (<= 0 installs no engine).
type Checkpoint struct {
	Path     string
	Interval int64
}

// Spec describes one run. The zero value of every observer field
// leaves that observer out.
type Spec struct {
	Config        gpu.Config // host knobs (Workers, WatchdogWindow) included
	Width, Height int
	Source        Source
	MaxCycles     int64 // budget of Session.Run, counted from the restored cycle

	// Spans turns on request tracing when its SampleRate is > 0.
	Spans trace.Options
	// Bus, when non-nil, attaches a metrics bus with these options;
	// Frames and Spans are filled in by Start.
	Bus *obsv.BusOptions
	// Profiler, when non-nil, is attached to the clock loop; one
	// profiler may serve many runs in turn.
	Profiler *obsv.Profiler
	// SigTrace, when non-nil, receives every wire's traffic.
	SigTrace core.Tracer
	// Chaos, when non-nil, injects the plan's faults; jobd sets it on a
	// job's first attempt only.
	Chaos *chaos.Plan

	Checkpoint Checkpoint
	// RestoreFrom, when set, is the checkpoint file the run resumes
	// from; a refusal is a *RestoreError.
	RestoreFrom string
}

// Session is an assembled run, ready for Run. Hooks a caller registers
// on Pipe.Sim after Start run after every hook Start installed.
type Session struct {
	Pipe     *gpu.Pipeline
	Commands []gpu.Command
	Spans    *trace.Collector // nil unless Spec.Spans asked for tracing
	Bus      *obsv.Bus        // nil unless Spec.Bus was set
	Engine   *chkpt.Engine    // nil unless Spec.Checkpoint.Interval > 0
	// RestoredCycle is the cycle a restored run continues at (captures
	// happen at barriers, so never 0); 0 means a run from the start.
	RestoredCycle int64

	maxCycles int64
}

// RestoreError reports a checkpoint that could not be restored:
// unreadable, damaged, or from another workload, configuration or
// observer set. Restore applies sections in order and is not atomic, so
// the machine it was tried on goes with the error: Start returns no
// session, and a caller that would rather replay starts a fresh one.
type RestoreError struct {
	Path string
	Err  error
}

func (e *RestoreError) Error() string { return "restore " + e.Path + ": " + e.Err.Error() }
func (e *RestoreError) Unwrap() error { return e.Err }

// Start builds the pipeline, obtains the command stream, attaches the
// observers and, with RestoreFrom set, loads the checkpoint.
func Start(spec Spec) (*Session, error) {
	pipe, err := gpu.New(spec.Config, spec.Width, spec.Height)
	if err != nil {
		return nil, err
	}
	cmds, fingerprint, err := spec.Source(pipe)
	if err != nil {
		return nil, err
	}
	s := &Session{Pipe: pipe, Commands: cmds, maxCycles: spec.MaxCycles}
	extras := s.attach(spec, fingerprint)
	if spec.RestoreFrom != "" {
		if err := s.restore(spec.RestoreFrom, fingerprint, extras); err != nil {
			return nil, &RestoreError{Path: spec.RestoreFrom, Err: err}
		}
	}
	return s, nil
}

// StartOrReplay is Start for callers that would rather replay than give
// up (the job server's retries and resumes): a refused restore is reported
// through logf and the run starts from cycle 0 on a fresh machine.
func StartOrReplay(spec Spec, logf func(format string, args ...any)) (*Session, error) {
	s, err := Start(spec)
	var re *RestoreError
	if errors.As(err, &re) {
		logf("run: checkpoint unusable (%v); replaying from the start", re)
		spec.RestoreFrom = ""
		s, err = Start(spec)
	}
	return s, err
}

// attach installs the observers the spec asks for. Barrier hooks run in
// registration order (core.Simulator.OnEndCycle), after the cycle's
// publications have folded and its statistics row (if it is a boundary)
// has been recorded, so the order of the statements below IS the
// barrier order, and the one place it is written:
//
//  1. span collector: a publication, not a hook — it folds the spans
//     that terminated this cycle before the row and any hook
//  2. metrics bus: not a hook either — it reads each statistics row as
//     it is recorded (core.StatManager.OnRow), before the hooks
//  3. profiler: a clock observer, no barrier hook
//  4. chaos injector: clock gate, memory transaction fault, and the
//     signal fault at the barrier
//  5. checkpoint engine: captures what 1-4 left behind
//
// It returns the snapshotters captured and restored beside the machine,
// always [spans, bus].
func (s *Session) attach(spec Spec, fingerprint string) []chkpt.Snapshotter {
	pipe := s.Pipe
	var extras []chkpt.Snapshotter
	if spec.SigTrace != nil {
		pipe.TraceSignals(spec.SigTrace)
	}
	if spec.Spans.SampleRate > 0 {
		s.Spans = pipe.EnableSpanTracing(spec.Spans)
		extras = append(extras, s.Spans)
	}
	if spec.Bus != nil {
		opts := *spec.Bus
		opts.Frames = func() int64 { return int64(pipe.CP.Frames()) }
		opts.Spans = s.Spans
		s.Bus = obsv.NewBus(pipe.Sim, opts)
		extras = append(extras, s.Bus)
	}
	if spec.Profiler != nil {
		spec.Profiler.Attach(pipe.Sim)
	}
	if spec.Chaos != nil {
		inj := chaos.NewInjector(spec.Chaos, pipe.Sim.Binder)
		pipe.Sim.SetClockGate(inj)
		pipe.MemController().SetFault(inj)
		pipe.Sim.OnEndCycle(inj.EndCycle)
	}
	if spec.Checkpoint.Interval > 0 {
		s.Engine = pipe.EnableCheckpoints(spec.Checkpoint.Path, fingerprint, spec.Checkpoint.Interval, extras...)
	}
	return extras
}

// restore loads the checkpoint at path. The workload fingerprint is
// checked here and the configuration fingerprint by RestoreCheckpoint,
// both before any state is touched; a section mismatch is found only
// while applying.
func (s *Session) restore(path, fingerprint string, extras []chkpt.Snapshotter) error {
	snap, err := chkpt.ReadFile(path)
	if err != nil {
		return err
	}
	if snap.Meta.Workload != fingerprint {
		return fmt.Errorf("checkpoint is for workload %q, this run is %q", snap.Meta.Workload, fingerprint)
	}
	if err := s.Pipe.RestoreCheckpoint(snap, s.Commands, extras...); err != nil {
		return err
	}
	s.RestoredCycle = snap.Meta.Cycle
	return nil
}

// Run executes the command stream to completion, from the restored
// cycle when the session was restored.
func (s *Session) Run(ctx context.Context) error {
	if s.RestoredCycle > 0 {
		return s.Pipe.ResumeContext(ctx, s.maxCycles)
	}
	return s.Pipe.RunContext(ctx, s.Commands, s.maxCycles)
}

// SanitizeName makes a run or job name safe as a file-name component
// (checkpoints, CSVs and manifests are named after it): anything outside
// [a-zA-Z0-9.-] becomes '_'.
func SanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
