// Package attila is a cycle-level, execution-driven simulator for
// modern GPU architectures, reproducing "ATTILA: A Cycle-Level
// Execution-Driven Simulator for Modern GPU Architectures" (Moya et
// al., ISPASS 2006) in pure Go.
//
// The package is a facade over the full system:
//
//   - internal/core    — the box-and-signal simulation framework
//   - internal/gpu     — the GPU pipeline (streamer to DAC)
//   - internal/emu/... — the functional emulator libraries
//   - internal/gl      — the OpenGL-like framework and driver
//   - internal/trace   — trace capture and replay with hot start
//   - internal/workload— synthetic UT2004-like / Doom3-like workloads
//   - internal/refrender — the functional golden-image renderer
//
// Quick start:
//
//	g, _ := attila.New(attila.BaselineUnified(), 256, 192)
//	res, _ := g.RunWorkload("simple", attila.DefaultWorkloadParams())
//	fmt.Println(res.Cycles, "cycles,", res.FPS, "fps")
package attila

import (
	"fmt"
	"io"

	"attila/internal/gpu"
	"attila/internal/refrender"
	"attila/internal/run"
	"attila/internal/trace"
	"attila/internal/workload"
)

// Config is the full architectural parameter set of the simulated
// GPU.
type Config = gpu.Config

// ScheduleMode selects the shader input scheduling policy (§5 case
// study: thread window vs in-order input queue).
type ScheduleMode = gpu.ScheduleMode

// Scheduling modes.
const (
	ScheduleWindow       = gpu.ScheduleWindow
	ScheduleInOrderQueue = gpu.ScheduleInOrderQueue
)

// Frame is a dumped framebuffer image.
type Frame = gpu.Frame

// Command is one low-level GPU command.
type Command = gpu.Command

// WorkloadParams configures the synthetic workload generators.
type WorkloadParams = workload.Params

// Configuration presets (paper Tables 1-2, §5, and the scaling
// studies).
var (
	Baseline        = gpu.Baseline
	BaselineUnified = gpu.BaselineUnified
	CaseStudy       = gpu.CaseStudy
	Embedded        = gpu.Embedded
	HighEnd         = gpu.HighEnd
)

// DefaultWorkloadParams returns the scaled-down case-study settings.
func DefaultWorkloadParams() WorkloadParams { return workload.DefaultParams() }

// Workloads lists the available synthetic workloads.
func Workloads() []string { return workload.Names() }

// DiffFrames compares two frames: differing pixel count and max
// per-channel delta.
func DiffFrames(a, b *Frame) (int, int) { return gpu.DiffFrames(a, b) }

// GPU is one simulated GPU instance: a configured pipeline plus its
// statistics.
type GPU struct {
	pipe *gpu.Pipeline
	w, h int
}

// New builds a simulator for the configuration and render target
// size.
func New(cfg Config, width, height int) (*GPU, error) {
	p, err := gpu.New(cfg, width, height)
	if err != nil {
		return nil, err
	}
	return &GPU{pipe: p, w: width, h: height}, nil
}

// Pipeline exposes the underlying pipeline for advanced use
// (statistics access, direct command construction).
func (g *GPU) Pipeline() *gpu.Pipeline { return g.pipe }

// Result summarizes a simulation run.
type Result struct {
	Cycles int64
	Frames []*Frame
	FPS    float64
}

// MaxCycles bounds runaway simulations; generous for the scaled-down
// workloads (the paper's full traces ran hundreds of millions of
// cycles per frame batch).
const MaxCycles = run.MaxCycles

// RunCommands executes a raw command stream on the timing simulator.
func (g *GPU) RunCommands(cmds []Command) (*Result, error) {
	if err := g.pipe.Run(cmds, MaxCycles); err != nil {
		return nil, err
	}
	return &Result{
		Cycles: g.pipe.Cycles(),
		Frames: g.pipe.Frames(),
		FPS:    g.pipe.FPS(),
	}, nil
}

// BuildWorkload generates a synthetic workload's command stream using
// this GPU's memory allocator (textures and buffers are placed in its
// GPU memory).
func (g *GPU) BuildWorkload(name string, p WorkloadParams) ([]Command, error) {
	p.Width, p.Height = g.w, g.h
	cmds, _, err := workload.Build(name, g.pipe, p)
	return cmds, err
}

// RunWorkload builds and executes a synthetic workload.
func (g *GPU) RunWorkload(name string, p WorkloadParams) (*Result, error) {
	cmds, err := g.BuildWorkload(name, p)
	if err != nil {
		return nil, err
	}
	return g.RunCommands(cmds)
}

// RunTrace replays a captured trace (with optional hot start: frames
// before startFrame are skipped except buffer writes; endFrame < 0
// plays to the end).
func (g *GPU) RunTrace(r io.Reader, startFrame, endFrame int) (*Result, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := tr.Header()
	if hdr.Width != g.w || hdr.Height != g.h {
		return nil, fmt.Errorf("attila: trace is %dx%d but GPU renders %dx%d",
			hdr.Width, hdr.Height, g.w, g.h)
	}
	cmds, err := tr.ReadAll(startFrame, endFrame)
	if err != nil {
		return nil, err
	}
	return g.RunCommands(cmds)
}

// Stat returns a cumulative statistic by name (e.g. "MC.readBytes",
// "TexCache0.hits"); ok is false for unknown names.
func (g *GPU) Stat(name string) (value float64, ok bool) {
	s := g.pipe.Sim.Stats.Lookup(name)
	if s == nil {
		return 0, false
	}
	return s.Value(), true
}

// StatNames lists every collected statistic.
func (g *GPU) StatNames() []string { return g.pipe.Sim.Stats.Names() }

// WriteStatsCSV dumps the interval-sampled statistics (the paper's
// CSV output).
func (g *GPU) WriteStatsCSV(w io.Writer) error { return g.pipe.DumpCSV(w) }

// WriteStatsSummary dumps cumulative statistics.
func (g *GPU) WriteStatsSummary(w io.Writer) error { return g.pipe.DumpStats(w) }

// RenderReference renders a command stream with the functional
// reference renderer (no timing) and returns its frames; the golden
// images for verification.
func RenderReference(cmds []Command, memBytes, width, height int) ([]*Frame, error) {
	ref := refrender.New(memBytes, width, height)
	if err := ref.Execute(cmds); err != nil {
		return nil, err
	}
	return ref.Frames(), nil
}

// CaptureTrace serializes a command stream as a trace file.
func CaptureTrace(w io.Writer, label string, width, height, frames int, cmds []Command) error {
	tw, err := trace.NewWriter(w, trace.Header{
		Width: width, Height: height, Frames: frames, Label: label,
	})
	if err != nil {
		return err
	}
	if err := tw.WriteCommands(cmds); err != nil {
		return err
	}
	return tw.Close()
}
