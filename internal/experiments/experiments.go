// Package experiments reproduces every table and figure of the
// paper's evaluation (§5) plus the scaling studies referenced in
// §2.2, on the synthetic workload substitutions described in
// DESIGN.md. Both cmd/experiments and the repository's benchmark
// harness drive these functions; EXPERIMENTS.md records the outcomes
// against the paper's.
package experiments

import (
	"context"
	"fmt"
	"io"

	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/refrender"
	"attila/internal/run"
	"attila/internal/workload"
)

// RunParams scales the experiments: the paper ran 1024x768 over 40
// frames on a cluster; the defaults here run each configuration in
// seconds.
type RunParams struct {
	Width     int
	Height    int
	Frames    int
	Aniso     int
	Seed      int64
	MaxCycles int64
	// WatchdogWindow arms the no-progress watchdog on every run
	// (gpu.Config.WatchdogWindow); 0 leaves it off.
	WatchdogWindow int64
	// Ctx, when non-nil, bounds every simulation: cancellation (a
	// signal handler, a timeout) stops the current run at a cycle
	// boundary and surfaces core.ErrCanceled.
	Ctx context.Context
	// Profiler, when non-nil, is attached to every run of the sweep;
	// attribution is keyed by box name, so the runs aggregate.
	Profiler *obsv.Profiler
}

// context returns the configured context or Background.
func (p RunParams) context() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// DefaultRunParams returns run.Defaults and the default cycle budget.
func DefaultRunParams() RunParams {
	d := run.Defaults()
	return RunParams{Width: d.Width, Height: d.Height, Frames: d.Frames, Aniso: d.Aniso, Seed: d.Seed, MaxCycles: run.MaxCycles}
}

func (p RunParams) workloadParams() workload.Params {
	return workload.Params{Width: p.Width, Height: p.Height, Frames: p.Frames, Aniso: p.Aniso, Seed: p.Seed}
}

// runOne is runSession for the figures that only read the finished
// pipeline.
func runOne(cfg gpu.Config, name string, p RunParams) (*gpu.Pipeline, error) {
	sess, err := runSession(cfg, name, p)
	if err != nil {
		return nil, err
	}
	return sess.Pipe, nil
}

// runSession simulates the named workload once on a fresh machine and
// returns the finished session. The simulation is deterministic, so a
// failed run fails the same way again; supervised, retried runs are
// jobd's (experiments -sweep).
func runSession(cfg gpu.Config, name string, p RunParams) (*run.Session, error) {
	cfg.WatchdogWindow = p.WatchdogWindow
	sess, err := run.Start(run.Spec{
		Config: cfg, Width: p.Width, Height: p.Height,
		Source:    run.Workload(name, p.workloadParams()),
		MaxCycles: p.MaxCycles,
		Profiler:  p.Profiler,
	})
	if err != nil {
		return nil, err
	}
	if err := sess.Run(p.context()); err != nil {
		return nil, err
	}
	return sess, nil
}

func stat(p *gpu.Pipeline, name string) float64 {
	s := p.Sim.Stats.Lookup(name)
	if s == nil {
		return 0
	}
	return s.Value()
}

// sumStat adds a per-unit statistic over unit indices 0..n-1.
func sumStat(p *gpu.Pipeline, prefix, suffix string, n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += stat(p, fmt.Sprintf("%s%d%s", prefix, i, suffix))
	}
	return total
}

// Fig7Row is one bar of Figure 7: cycles and frame rate for a
// workload under a texture unit count and scheduling mode, plus the
// performance degradation relative to the 3-TU configuration of the
// same mode and workload.
type Fig7Row struct {
	Workload    string
	Mode        gpu.ScheduleMode
	TUs         int
	Cycles      int64
	FPS         float64
	Degradation float64 // percent slower than the 3 TU run
}

// Fig7 sweeps texture units 3..1 for both scheduling modes over the
// UT2004-like and Doom3-like workloads on the case-study
// configuration (three unified shaders, one ROP, two channels).
func Fig7(p RunParams, progress io.Writer) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, wl := range []string{"ut2004", "doom3"} {
		for _, mode := range []gpu.ScheduleMode{gpu.ScheduleWindow, gpu.ScheduleInOrderQueue} {
			var base int64
			for _, tus := range []int{3, 2, 1} {
				cfg := gpu.CaseStudy(tus, mode)
				pipe, err := runOne(cfg, wl, p)
				if err != nil {
					return nil, fmt.Errorf("fig7 %s/%v/%dTU: %w", wl, mode, tus, err)
				}
				row := Fig7Row{
					Workload: wl, Mode: mode, TUs: tus,
					Cycles: pipe.Cycles(), FPS: pipe.FPS(),
				}
				if tus == 3 {
					base = row.Cycles
				}
				if base > 0 {
					row.Degradation = 100 * (float64(row.Cycles) - float64(base)) / float64(base)
				}
				rows = append(rows, row)
				if progress != nil {
					fmt.Fprintf(progress, "  fig7 %s %s %d TU: %d cycles (%.1f fps, %+.1f%%)\n",
						wl, mode, tus, row.Cycles, row.FPS, row.Degradation)
				}
			}
		}
	}
	return rows, nil
}

// Fig8Row is one texture-unit-count sample of Figure 8: aggregate
// texture cache hit rate and texture memory bandwidth.
type Fig8Row struct {
	Workload    string
	TUs         int
	HitRate     float64
	TexMemBytes float64
	Cycles      int64
	// BytesPerCycle is the average texture memory bandwidth.
	BytesPerCycle float64
}

// Fig8Series is the per-10K-cycle texture cache hit rate curve for
// one run (the paper plots it for a DOOM3 frame at 3 TUs).
type Fig8Series struct {
	Cycle   []int64
	HitRate []float64
}

// Fig8 measures texture cache behaviour across TU counts on the
// thread-window configuration, plus the sampled hit-rate curve at 3
// TUs for the Doom3-like workload.
func Fig8(p RunParams, progress io.Writer) ([]Fig8Row, *Fig8Series, error) {
	var rows []Fig8Row
	var series *Fig8Series
	for _, wl := range []string{"ut2004", "doom3"} {
		for _, tus := range []int{3, 2, 1} {
			cfg := gpu.CaseStudy(tus, gpu.ScheduleWindow)
			pipe, err := runOne(cfg, wl, p)
			if err != nil {
				return nil, nil, fmt.Errorf("fig8 %s/%dTU: %w", wl, tus, err)
			}
			hits := sumStat(pipe, "TexCache", ".hits", tus)
			misses := sumStat(pipe, "TexCache", ".misses", tus)
			texBytes := 0.0
			for i := 0; i < tus; i++ {
				texBytes += stat(pipe, fmt.Sprintf("MC.TexCache%d.readBytes", i))
			}
			row := Fig8Row{
				Workload: wl, TUs: tus,
				TexMemBytes: texBytes,
				Cycles:      pipe.Cycles(),
			}
			if hits+misses > 0 {
				row.HitRate = hits / (hits + misses)
			}
			if pipe.Cycles() > 0 {
				row.BytesPerCycle = texBytes / float64(pipe.Cycles())
			}
			rows = append(rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "  fig8 %s %d TU: hit rate %.4f, %.0f tex bytes (%.2f B/cyc)\n",
					wl, tus, row.HitRate, row.TexMemBytes, row.BytesPerCycle)
			}
			if wl == "doom3" && tus == 3 {
				series = texHitSeries(pipe, tus)
			}
		}
	}
	return rows, series, nil
}

func texHitSeries(pipe *gpu.Pipeline, tus int) *Fig8Series {
	s := &Fig8Series{}
	cycles, hits := pipe.Sim.Stats.Samples("TexCache0.hits")
	_, misses := pipe.Sim.Stats.Samples("TexCache0.misses")
	for i := 1; i < tus; i++ {
		_, h := pipe.Sim.Stats.Samples(fmt.Sprintf("TexCache%d.hits", i))
		_, m := pipe.Sim.Stats.Samples(fmt.Sprintf("TexCache%d.misses", i))
		for j := range hits {
			if j < len(h) {
				hits[j] += h[j]
			}
			if j < len(m) {
				misses[j] += m[j]
			}
		}
	}
	for i := range cycles {
		total := hits[i] + misses[i]
		if total == 0 {
			continue
		}
		s.Cycle = append(s.Cycle, cycles[i])
		s.HitRate = append(s.HitRate, hits[i]/total)
	}
	return s
}

// Fig9Config identifies one of the three workload-characterization
// configurations of Figure 9.
type Fig9Config struct {
	Label string
	Mode  gpu.ScheduleMode
	TUs   int
}

// Fig9Series is the per-interval utilization of the major units for
// one configuration.
type Fig9Series struct {
	Config  Fig9Config
	Cycle   []int64
	Shader  []float64 // average shader unit utilization 0..1
	Texture []float64 // average texture unit utilization
	ROP     []float64 // Z + color write utilization
	Memory  []float64 // memory controller utilization
	// Aggregate utilizations over the whole run.
	AvgShader, AvgTexture, AvgROP, AvgMemory float64
}

// Fig9 samples unit utilization every StatInterval cycles for the
// Doom3-like workload under the three §5 configurations: thread
// window with 3 TUs, thread window with 1 TU, in-order queue with 3
// TUs.
func Fig9(p RunParams, progress io.Writer) ([]*Fig9Series, error) {
	configs := []Fig9Config{
		{"window-3TU", gpu.ScheduleWindow, 3},
		{"window-1TU", gpu.ScheduleWindow, 1},
		{"inorder-3TU", gpu.ScheduleInOrderQueue, 3},
	}
	var out []*Fig9Series
	for _, fc := range configs {
		cfg := gpu.CaseStudy(fc.TUs, fc.Mode)
		pipe, err := runOne(cfg, "doom3", p)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", fc.Label, err)
		}
		s := &Fig9Series{Config: fc}
		interval := float64(cfg.StatInterval)
		cycles, _ := pipe.Sim.Stats.Samples("Shader0.busyCycles")
		s.Cycle = cycles
		n := len(cycles)
		avg := func(prefix, suffix string, units int) []float64 {
			sums := make([]float64, n)
			for u := 0; u < units; u++ {
				_, d := pipe.Sim.Stats.Samples(fmt.Sprintf("%s%d%s", prefix, u, suffix))
				for i := 0; i < n && i < len(d); i++ {
					sums[i] += d[i]
				}
			}
			for i := range sums {
				sums[i] /= float64(units) * interval
			}
			return sums
		}
		s.Shader = avg("Shader", ".busyCycles", cfg.NumShaders)
		s.Texture = avg("TextureUnit", ".busyCycles", fc.TUs)
		ropZ := avg("ZStencil", ".busyCycles", cfg.NumROPs)
		ropC := avg("ColorWrite", ".busyCycles", cfg.NumROPs)
		s.ROP = make([]float64, n)
		for i := 0; i < n; i++ {
			s.ROP[i] = (ropZ[i] + ropC[i]) / 2
		}
		_, mcBusy := pipe.Sim.Stats.Samples("MC.busyCycles")
		s.Memory = make([]float64, n)
		for i := 0; i < n && i < len(mcBusy); i++ {
			s.Memory[i] = mcBusy[i] / interval
		}
		// Averages skip the texture/buffer upload prologue (no
		// shading activity yet), the part the paper's hot start
		// excludes from its measurements.
		start := 0
		for start < n && s.Shader[start] == 0 {
			start++
		}
		mean := func(xs []float64) float64 {
			if start >= len(xs) {
				return 0
			}
			sum := 0.0
			for _, x := range xs[start:] {
				sum += x
			}
			return sum / float64(len(xs)-start)
		}
		s.AvgShader = mean(s.Shader)
		s.AvgTexture = mean(s.Texture)
		s.AvgROP = mean(s.ROP)
		s.AvgMemory = mean(s.Memory)
		out = append(out, s)
		if progress != nil {
			fmt.Fprintf(progress, "  fig9 %s: shader %.0f%%, TU %.0f%%, ROP %.0f%%, mem %.0f%%\n",
				fc.Label, s.AvgShader*100, s.AvgTexture*100, s.AvgROP*100, s.AvgMemory*100)
		}
	}
	return out, nil
}

// Fig10Result is the rendered-output verification: the simulator's
// DAC dump against the functional reference.
type Fig10Result struct {
	SimFrame   *gpu.Frame
	RefFrame   *gpu.Frame
	DiffPixels int
	MaxDelta   int
}

// Fig10 renders a Doom3-like frame on the timing simulator and the
// reference renderer and diffs them (the paper compares against a
// GeForce 5900; see DESIGN.md for the substitution).
func Fig10(p RunParams) (*Fig10Result, error) {
	cfg := gpu.CaseStudy(3, gpu.ScheduleWindow)
	sess, err := runSession(cfg, "doom3", p)
	if err != nil {
		return nil, err
	}
	ref := refrender.New(cfg.GPUMemBytes, p.Width, p.Height)
	if err := ref.Execute(sess.Commands); err != nil {
		return nil, err
	}
	simFrames := sess.Pipe.Frames()
	refFrames := ref.Frames()
	if len(simFrames) == 0 || len(simFrames) != len(refFrames) {
		return nil, fmt.Errorf("fig10: frame counts %d vs %d", len(simFrames), len(refFrames))
	}
	last := len(simFrames) - 1
	diff, maxd := gpu.DiffFrames(simFrames[last], refFrames[last])
	return &Fig10Result{
		SimFrame: simFrames[last], RefFrame: refFrames[last],
		DiffPixels: diff, MaxDelta: maxd,
	}, nil
}

// ScalingRow is one configuration of the unified/non-unified scaling
// study ([1] in §2.2).
type ScalingRow struct {
	Config   string
	Workload string
	Unified  bool
	Shaders  int
	ROPs     int
	Cycles   int64
	FPS      float64
}

// Scaling sweeps shader counts for both shader models.
func Scaling(p RunParams, progress io.Writer) ([]ScalingRow, error) {
	var rows []ScalingRow
	type variant struct {
		name    string
		cfg     gpu.Config
		unified bool
	}
	variants := []variant{}
	for _, n := range []int{1, 2, 4, 8} {
		cfg := gpu.BaselineUnified()
		cfg.NumShaders = n
		cfg.NumTextureUnits = max(1, n/2)
		cfg.Name = fmt.Sprintf("unified-%d", n)
		variants = append(variants, variant{cfg.Name, cfg, true})
	}
	for _, n := range []int{1, 2, 4} {
		cfg := gpu.Baseline()
		cfg.NumShaders = n // fragment shaders
		cfg.NumVertexShaders = 2 * n
		cfg.NumTextureUnits = max(1, n)
		cfg.Name = fmt.Sprintf("split-%dv%df", cfg.NumVertexShaders, n)
		variants = append(variants, variant{cfg.Name, cfg, false})
	}
	for _, v := range variants {
		pipe, err := runOne(v.cfg, "ut2004", p)
		if err != nil {
			return nil, fmt.Errorf("scaling %s: %w", v.name, err)
		}
		row := ScalingRow{
			Config: v.name, Workload: "ut2004", Unified: v.unified,
			Shaders: v.cfg.NumShaders, ROPs: v.cfg.NumROPs,
			Cycles: pipe.Cycles(), FPS: pipe.FPS(),
		}
		rows = append(rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "  scaling %s: %d cycles (%.1f fps)\n", v.name, row.Cycles, row.FPS)
		}
	}
	return rows, nil
}

// EmbeddedRow reports the embedded configuration ([2] in §2.2).
type EmbeddedRow struct {
	Workload string
	Cycles   int64
	FPS      float64
}

// Embedded runs the single-shader embedded GPU on the spinner
// workload.
func Embedded(p RunParams) (*EmbeddedRow, error) {
	pipe, err := runOne(gpu.Embedded(), "spinner", p)
	if err != nil {
		return nil, err
	}
	return &EmbeddedRow{Workload: "spinner", Cycles: pipe.Cycles(), FPS: pipe.FPS()}, nil
}

// AblationRow reports one design-choice toggle.
type AblationRow struct {
	Name    string
	Cycles  int64
	FPS     float64
	RelPct  float64 // percent vs the baseline row
	Details string
}

// Ablation toggles the architectural features DESIGN.md calls out —
// Hierarchical Z, Z compression, early Z, the vertex cache and the
// fragment generator algorithm — on the Doom3-like workload.
func Ablation(p RunParams, progress io.Writer) ([]AblationRow, error) {
	type variant struct {
		name string
		mod  func(*gpu.Config)
		det  string
	}
	variants := []variant{
		{"baseline", func(c *gpu.Config) {}, "case study, 2 TU, window"},
		{"no-hz", func(c *gpu.Config) { c.HZEnabled = false }, "Hierarchical Z off"},
		{"no-zcompress", func(c *gpu.Config) { c.ZCompression = false }, "Z compression off"},
		{"no-earlyz", func(c *gpu.Config) { c.EarlyZ = false }, "Z/stencil after shading"},
		{"no-vcache", func(c *gpu.Config) { c.VertexCacheEntries = 1 }, "post-shading vertex cache ~off"},
		{"scanline-fgen", func(c *gpu.Config) { c.FGenAlgorithm = gpu.FGenScanline }, "Neon-style tile scanner"},
	}
	// An extra row compares the two-sided stencil extension (paper
	// future work): same scene, single-pass shadow volumes.
	twoSided := variant{"two-sided-st", func(c *gpu.Config) {}, "doom3ds: single-pass volumes"}
	var rows []AblationRow
	var base int64
	for _, v := range append(variants, twoSided) {
		cfg := gpu.CaseStudy(2, gpu.ScheduleWindow)
		v.mod(&cfg)
		wl := "doom3"
		if v.name == "two-sided-st" {
			wl = "doom3ds"
		}
		pipe, err := runOne(cfg, wl, p)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		row := AblationRow{Name: v.name, Cycles: pipe.Cycles(), FPS: pipe.FPS(), Details: v.det}
		if v.name == "baseline" {
			base = row.Cycles
		}
		if base > 0 {
			row.RelPct = 100 * (float64(row.Cycles) - float64(base)) / float64(base)
		}
		rows = append(rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "  ablation %-14s: %d cycles (%+.1f%%) — %s\n",
				v.name, row.Cycles, row.RelPct, v.det)
		}
	}
	return rows, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
