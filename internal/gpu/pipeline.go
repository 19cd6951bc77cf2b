package gpu

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/obsv/trace"
)

// Framebuffer owns the double-buffered color surface and the
// depth-stencil surface, plus an optional offscreen render target
// override (render to texture).
type Framebuffer struct {
	color    [2]SurfaceLayout
	z        SurfaceLayout
	draw     int
	override *SurfaceLayout
}

// Draw returns the current color render target: the offscreen
// override when set, else the back buffer.
func (f *Framebuffer) Draw() SurfaceLayout {
	if f.override != nil {
		return *f.override
	}
	return f.color[f.draw]
}

// SetOverride redirects color rendering (nil restores the back
// buffer). Only the command processor calls this, at a drained
// pipeline point.
func (f *Framebuffer) SetOverride(l *SurfaceLayout) { f.override = l }

// Front returns the displayed buffer.
func (f *Framebuffer) Front() SurfaceLayout { return f.color[1-f.draw] }

// Z returns the depth-stencil surface.
func (f *Framebuffer) Z() SurfaceLayout { return f.z }

// Swap flips front and back.
func (f *Framebuffer) Swap() { f.draw = 1 - f.draw }

// FramebufferPlan places the two color buffers and the depth-stencil
// buffer at fixed GPU memory addresses for a render target size, and
// returns the first free address after them. The timing pipeline and
// the functional reference renderer share this plan, which is what
// makes their memory images directly comparable.
func FramebufferPlan(w, h int) (color0, color1, z SurfaceLayout, reserved uint32) {
	bytes := uint32(NewSurfaceLayout(0, w, h).Bytes())
	color0 = NewSurfaceLayout(0, w, h)
	color1 = NewSurfaceLayout(bytes, w, h)
	z = NewSurfaceLayout(2*bytes, w, h)
	return color0, color1, z, 3 * bytes
}

// Pipeline assembles the complete ATTILA GPU from boxes and signals
// (Figure 5) for a given configuration and framebuffer size, and
// drives the simulation.
type Pipeline struct {
	Cfg *Config
	Sim *core.Simulator
	Mem *mem.GPUMemory
	FB  *Framebuffer

	CP     *CommandProcessor
	DACBox *DAC

	streamer *Streamer
	setupBox *Setup
	hz       *HierarchicalZ
	ropzs    []*ZStencil
	ropcs    []*ColorWrite
	shaders  []*ShaderUnit
	tus      []*TextureUnit
	ffifo    *FragmentFIFO
	mc       *mem.Controller

	// Resolved once by resolveCheckpointing.
	quiet []func() bool
	parts []chkpt.Snapshotter

	alloc *mem.Allocator
	w, h  int

	ahead runAhead // the shader helper of every Run
}

// flow provides a signal under the producer's name and binds it for
// the consumer, wrapping it with queue credits. Credit releases fold
// at the simulator's cycle barrier, on cycles the consumer released
// any, and the fold wakes a producer parked on the credit.
func pFlow(sim *core.Simulator, producer, consumer, name string, bw, lat, maxLat, queue int) *Flow {
	sig := sim.Binder.Provide(producer, name, bw, lat, maxLat)
	var bound *core.Signal
	sim.Binder.Bind(consumer, name, &bound)
	f := NewFlow(sig, queue)
	f.pub = sim.Publish(producer, f.EndCycle)
	return f
}

// warnWorkers makes the warning for an ignored Config.Workers once per
// process, not once per pipeline (sweeps build hundreds).
var warnWorkers sync.Once

// New builds a pipeline for the configuration and render target size.
func New(cfg Config, width, height int) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if width < 1 || height < 1 {
		return nil, &ConfigError{Config: cfg.Name, Msg: fmt.Sprintf("render target %dx%d is empty", width, height)}
	}
	p := &Pipeline{Cfg: &cfg, w: width, h: height}
	p.Sim = core.NewSimulator(cfg.StatInterval)
	p.Mem = mem.NewGPUMemory(cfg.GPUMemBytes)

	// Framebuffer allocation: two color buffers plus depth-stencil,
	// always at the fixed plan addresses so the functional reference
	// renderer sees identical memory layout.
	c0, c1, zb, reserved := FramebufferPlan(width, height)
	if int(reserved) > cfg.GPUMemBytes {
		return nil, &ConfigError{Config: cfg.Name, Msg: "GPU memory too small for framebuffer"}
	}
	p.alloc = mem.NewAllocator(reserved, uint32(cfg.GPUMemBytes)-reserved)
	p.FB = &Framebuffer{color: [2]SurfaceLayout{c0, c1}, z: zb}

	sim := p.Sim
	nROP := cfg.NumROPs
	nShaders := cfg.NumShaders
	if !cfg.UnifiedShaders {
		nShaders += cfg.NumVertexShaders
	}
	nTU := cfg.NumTextureUnits

	// Flows. Producer/consumer names are the box names; the binder
	// verifies every signal ends up with exactly one of each.
	drawFlow := pFlow(sim, "CommandProcessor", "Streamer", "CP.Draw", 1, 1, 0, 2)
	shadeOut := pFlow(sim, "Streamer", "FragmentFIFO", "Streamer.ShadeIn", 1, 1, 0, 16)
	vtxShaded := pFlow(sim, "FragmentFIFO", "Streamer", "FFIFO.VtxShaded", 1, 1, 0, 16)
	vtxOut := pFlow(sim, "Streamer", "PrimAssembly", "Streamer.VtxOut", 1, 1, 0, cfg.PAQueue)
	paOut := pFlow(sim, "PrimAssembly", "Clipper", "PA.TriOut", 1, 1, 0, cfg.ClipQueue)
	clipOut := pFlow(sim, "Clipper", "TriangleSetup", "Clipper.TriOut", 1, cfg.ClipLatency, 0, cfg.SetupQueue)
	setupOut := pFlow(sim, "TriangleSetup", "FragmentGenerator", "Setup.TriOut", 1, cfg.SetupLatency, 0, cfg.FGenQueue)
	fgenOut := pFlow(sim, "FragmentGenerator", "HierarchicalZ", "FGen.Tiles", cfg.FGenTilesPerCycle, 1, 0, cfg.HZQueue)

	hzEarly := make([]*Flow, nROP)
	for i := 0; i < nROP; i++ {
		hzEarly[i] = pFlow(sim, "HierarchicalZ", nameIdx("ZStencil", i),
			nameIdx("HZ.QuadsEarly.", i), 32, 1, 0, cfg.ROPQueue)
	}
	interpIns := make([]*Flow, 0, nROP+1)
	ropzEarly := make([]*Flow, nROP)
	for i := 0; i < nROP; i++ {
		ropzEarly[i] = pFlow(sim, nameIdx("ZStencil", i), "Interpolator",
			nameIdx("ZStencil.Early.", i), 1, 2, 0, cfg.InterpQueue)
		interpIns = append(interpIns, ropzEarly[i])
	}
	hzLate := pFlow(sim, "HierarchicalZ", "Interpolator", "HZ.QuadsLate", 32, 1, 0, cfg.InterpQueue)
	interpIns = append(interpIns, hzLate)

	interpMaxLat := cfg.InterpBaseLat + cfg.InterpPerAttrLat*isa.MaxInputs
	interpOut := pFlow(sim, "Interpolator", "FragmentFIFO", "Interp.Out",
		cfg.InterpQuadsPerCycle, cfg.InterpBaseLat, interpMaxLat, 32)

	shaderIn := make([]*Flow, nShaders)
	shaderOut := make([]*Flow, nShaders)
	texFromShader := make([]*Flow, nShaders)
	texToShader := make([]*Flow, nShaders)
	for i := 0; i < nShaders; i++ {
		vertexOnly := !cfg.UnifiedShaders && i < cfg.NumVertexShaders
		threads := cfg.ThreadsPerShader
		if vertexOnly {
			threads = cfg.VertexThreadsPerShader
		}
		shaderIn[i] = pFlow(sim, "FragmentFIFO", nameIdx("Shader", i),
			nameIdx("FFIFO.ShaderIn.", i), 1, 1, 0, threads)
		shaderOut[i] = pFlow(sim, nameIdx("Shader", i), "FragmentFIFO",
			nameIdx("Shader.Out.", i), 1, 1, 0, 4)
		if !vertexOnly {
			texFromShader[i] = pFlow(sim, nameIdx("Shader", i), "TexCrossbar",
				nameIdx("Shader.TexReq.", i), 1, 1, 0, 8)
			texToShader[i] = pFlow(sim, "TexCrossbar", nameIdx("Shader", i),
				nameIdx("XBar.Rep.", i), 1, 1, 0, 8)
		}
	}
	texToTU := make([]*Flow, nTU)
	texFromTU := make([]*Flow, nTU)
	for i := 0; i < nTU; i++ {
		texToTU[i] = pFlow(sim, "TexCrossbar", nameIdx("TextureUnit", i),
			nameIdx("XBar.TUReq.", i), 1, 1, 0, cfg.TexQueue)
		filterLat := cfg.TexFilterLat
		if filterLat < 1 {
			filterLat = 1
		}
		texFromTU[i] = pFlow(sim, nameIdx("TextureUnit", i), "TexCrossbar",
			nameIdx("TU.Rep.", i), 1, 1, filterLat, 8)
	}

	ffifoEarly := make([]*Flow, nROP) // FFIFO -> ColorWrite (early-Z)
	ffifoLate := make([]*Flow, nROP)  // FFIFO -> ZStencil (late-Z)
	ropzLate := make([]*Flow, nROP)   // ZStencil -> ColorWrite (late-Z)
	for i := 0; i < nROP; i++ {
		ffifoEarly[i] = pFlow(sim, "FragmentFIFO", nameIdx("ColorWrite", i),
			nameIdx("FFIFO.ROPc.", i), 4, 1, 0, cfg.ROPQueue)
		ffifoLate[i] = pFlow(sim, "FragmentFIFO", nameIdx("ZStencil", i),
			nameIdx("FFIFO.ROPzLate.", i), 4, 1, 0, cfg.ROPQueue)
		ropzLate[i] = pFlow(sim, nameIdx("ZStencil", i), nameIdx("ColorWrite", i),
			nameIdx("ZStencil.Late.", i), 1, 2, 0, cfg.ROPQueue)
	}

	// Boxes. Registration order is the clocking order; with all
	// signal latencies >= 1 it does not affect results.
	// Shared free lists for the geometry and fragment paths' objects.
	pool := &pipePool{}
	p.streamer = NewStreamer(sim, &cfg, pool, p.Mem, drawFlow, shadeOut, vtxShaded, vtxOut)
	NewPrimAssembly(sim, pool, vtxOut, paOut)
	NewClipper(sim, pool, paOut, clipOut)
	p.setupBox = NewSetup(sim, pool, clipOut, setupOut)
	NewFragmentGenerator(sim, &cfg, pool, setupOut, fgenOut)
	p.hz = NewHierarchicalZ(sim, &cfg, pool, p.FB.Z(), fgenOut, hzEarly, hzLate)
	p.ropzs = make([]*ZStencil, nROP)
	p.ropcs = make([]*ColorWrite, nROP)
	for i := 0; i < nROP; i++ {
		p.ropzs[i] = NewZStencil(sim, &cfg, i, pool, p.FB.Z(),
			[]*Flow{hzEarly[i], ffifoLate[i]}, ropzEarly[i], ropzLate[i])
		p.ropzs[i].SetHZ(p.hz)
		p.ropcs[i] = NewColorWrite(sim, &cfg, i, pool, p.FB.Draw,
			[]*Flow{ffifoEarly[i], ropzLate[i]})
	}
	NewInterpolator(sim, &cfg, pool, interpIns, interpOut)
	ffifo := NewFragmentFIFO(sim, &cfg, pool, p.FB.Z(), shadeOut, interpOut, vtxShaded,
		ffifoEarly, ffifoLate, shaderIn, shaderOut)
	p.ffifo = ffifo
	p.shaders = make([]*ShaderUnit, nShaders)
	for i := 0; i < nShaders; i++ {
		vertexOnly := !cfg.UnifiedShaders && i < cfg.NumVertexShaders
		p.shaders[i] = NewShaderUnit(sim, &cfg, i, vertexOnly,
			shaderIn[i], shaderOut[i], texFromShader[i], texToShader[i])
	}
	p.ahead.init(p.shaders)
	NewTexCrossbar(sim, texFromShader, texToTU, texFromTU, texToShader)
	p.tus = make([]*TextureUnit, nTU)
	for i := 0; i < nTU; i++ {
		p.tus[i] = NewTextureUnit(sim, &cfg, i, texToTU[i], texFromTU[i])
	}
	p.DACBox = NewDAC(sim, p.ropcs, cfg.DACRefreshCycles, p.FB.Front)
	p.CP = NewCommandProcessor(sim, &cfg, p.FB, drawFlow, p.ropzs, p.ropcs, p.tus, p.DACBox)
	p.CP.wakes.setup = &p.setupBox.BoxBase

	// Memory controller: one client per port registered above.
	clients := []string{"CP", "Streamer", "DAC"}
	for i := 0; i < nROP; i++ {
		clients = append(clients, nameIdx("ZCache", i), nameIdx("ColorCache", i))
	}
	for i := 0; i < nTU; i++ {
		clients = append(clients, nameIdx("TexCache", i))
	}
	p.mc = mem.NewController(sim, cfg.Memory, p.Mem, clients)

	if cfg.Workers > 1 {
		warnWorkers.Do(func() {
			slog.Warn("gpu: Config.Workers is ignored; the parallel clock loop is gone and a run uses one goroutine",
				"workers", cfg.Workers)
		})
	}
	sim.SetWatchdog(cfg.WatchdogWindow)
	sim.SetDone(p.CP.Finished)
	p.resolveCheckpointing()
	return p, nil
}

// TraceSignals installs a signal tracer on every wire; the produced
// signal trace feeds the Signal Trace Visualizer (cmd/sigtrace).
func (p *Pipeline) TraceSignals(t core.Tracer) { p.Sim.Binder.SetTracer(t) }

// EnableSpanTracing attaches request-lifecycle tracing: every memory
// port and the shader-work scheduler get a tracing handle, a sampled
// fraction of their requests carry pooled span records through the
// machine, and the returned collector folds terminations into
// per-client latency histograms at the end of each cycle one
// terminated in — a publication, folded before every end-of-cycle
// hook, so the metrics bus sees the current cycle's terminations. The
// collector also feeds the crash flight recorder.
func (p *Pipeline) EnableSpanTracing(opts trace.Options) *trace.Collector {
	col := trace.NewCollector(opts)
	// Client registration order is the fold order and therefore part
	// of the deterministic output; keep it fixed: the MC client list
	// order, then the shader-work clients.
	p.CP.port.SetTracer(col.Client("CP"))
	p.streamer.fetch.SetTracer(col.Client("Streamer"))
	p.DACBox.port.SetTracer(col.Client("DAC"))
	for i, z := range p.ropzs {
		z.cache.SetTracer(col.Client(nameIdx("ZCache", i)))
	}
	for i, c := range p.ropcs {
		c.cache.SetTracer(col.Client(nameIdx("ColorCache", i)))
	}
	for i, t := range p.tus {
		t.cache.SetTracer(col.Client(nameIdx("TexCache", i)))
	}
	p.ffifo.SetTracers(col.Client("FFIFO.vtx"), col.Client("FFIFO.frag"))
	col.Attach(p.Sim)
	p.Sim.SetFlightRecorder(col.Recent)
	return col
}

// Alloc reserves GPU memory for driver objects (buffers, textures).
func (p *Pipeline) Alloc(n int, align uint32) (uint32, error) {
	return p.alloc.Alloc(n, align)
}

// Width and Height return the render target size.
func (p *Pipeline) Width() int { return p.w }

// Height returns the render target height.
func (p *Pipeline) Height() int { return p.h }

// Run executes the command stream to completion (or the cycle limit).
func (p *Pipeline) Run(cmds []Command, maxCycles int64) error {
	p.CP.SetCommands(cmds)
	return p.simulate(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation: when ctx is
// canceled (Ctrl-C handler, -timeout), the run stops at the next cycle
// boundary with an error matching core.ErrCanceled, partial statistics
// and frames intact. See core.Simulator.RunContext for the full error
// contract.
func (p *Pipeline) RunContext(ctx context.Context, cmds []Command, maxCycles int64) error {
	p.CP.SetCommands(cmds)
	return p.simulate(ctx, maxCycles)
}

// simulate is the clock loop of every run entry point, with the Run's
// shader helper goroutine beside it (runahead.go). The helper has
// drained and exited when it returns, whatever ended the run.
func (p *Pipeline) simulate(ctx context.Context, maxCycles int64) error {
	p.ahead.start(p.shaders)
	defer p.ahead.stop(p.shaders)
	return p.Sim.RunContext(ctx, maxCycles)
}

// Cycles returns the simulated cycle count so far.
func (p *Pipeline) Cycles() int64 { return p.Sim.Cycle() }

// Frames returns the DAC frame dumps.
func (p *Pipeline) Frames() []*Frame { return p.DACBox.Frames() }

// FPS converts the cycles spent so far into frames per second at the
// configured clock.
func (p *Pipeline) FPS() float64 {
	frames := float64(p.CP.Frames())
	if frames == 0 || p.Sim.Cycle() == 0 {
		return 0
	}
	seconds := float64(p.Sim.Cycle()) / (float64(p.Cfg.ClockMHz) * 1e6)
	return frames / seconds
}

// DumpStats writes the cumulative statistics summary.
func (p *Pipeline) DumpStats(w io.Writer) error {
	return p.Sim.Stats.WriteSummary(w)
}

// DumpCSV writes the interval-sampled statistics (the paper's CSV
// output with ~300 statistics).
func (p *Pipeline) DumpCSV(w io.Writer) error {
	return p.Sim.Stats.WriteCSV(w)
}

// String summarizes the configuration.
func (p *Pipeline) String() string {
	return fmt.Sprintf("ATTILA %s: %d shaders (unified=%v), %d ROPs, %d TUs, %dx%d",
		p.Cfg.Name, p.Cfg.NumShaders, p.Cfg.UnifiedShaders, p.Cfg.NumROPs,
		p.Cfg.NumTextureUnits, p.w, p.h)
}
