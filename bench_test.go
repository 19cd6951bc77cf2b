package attila_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for recorded outcomes):
//
//	BenchmarkTable1Baseline  — baseline config throughput (Table 1)
//	BenchmarkTable2Caches    — cache hit behaviour (Table 2)
//	BenchmarkFig7            — TU sweep x scheduling mode x workload
//	BenchmarkFig8_TexCache   — texture cache hit rate / bandwidth
//	BenchmarkFig9_Utilization— unit utilization characterization
//	BenchmarkFig10_Verify    — DAC dump vs reference renderer
//	BenchmarkScaling         — unified vs non-unified scaling ([1])
//	BenchmarkEmbedded        — embedded configuration ([2])
//	BenchmarkAblation        — HZ / compression / early-Z / fgen toggles
//
// Custom metrics: cycles/frame (simulated GPU cycles), fps@600MHz
// (simulated frame rate), hit% (cache hit rate), util% (unit
// utilization), degr% (cycle degradation vs the 3 TU baseline).
// ns/op measures host simulation speed, not GPU performance.

import (
	"fmt"
	"testing"

	"attila/internal/experiments"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// benchParams keeps every benchmark run in the seconds range; use
// cmd/experiments for the larger default scale.
func benchParams() experiments.RunParams {
	return experiments.RunParams{
		Width: 128, Height: 96, Frames: 1, Aniso: 8, Seed: 1,
		MaxCycles: 500_000_000,
	}
}

func runWorkloadOnce(b testing.TB, cfg gpu.Config, name string, p experiments.RunParams) *gpu.Pipeline {
	b.Helper()
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		b.Fatal(err)
	}
	cmds, _, err := workload.Build(name, pipe, workload.Params{
		Width: p.Width, Height: p.Height, Frames: p.Frames, Aniso: p.Aniso, Seed: p.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := pipe.Run(cmds, p.MaxCycles); err != nil {
		b.Fatal(err)
	}
	return pipe
}

func reportPipe(b *testing.B, pipe *gpu.Pipeline, frames int) {
	b.Helper()
	b.ReportMetric(float64(pipe.Cycles())/float64(frames), "cycles/frame")
	b.ReportMetric(pipe.FPS(), "fps@clk")
}

func BenchmarkTable1Baseline(b *testing.B) {
	p := benchParams()
	var last *gpu.Pipeline
	for i := 0; i < b.N; i++ {
		last = runWorkloadOnce(b, gpu.Baseline(), "simple", p)
	}
	reportPipe(b, last, p.Frames)
}

func BenchmarkTable2Caches(b *testing.B) {
	p := benchParams()
	var last *gpu.Pipeline
	for i := 0; i < b.N; i++ {
		last = runWorkloadOnce(b, gpu.BaselineUnified(), "ut2004", p)
	}
	for _, cache := range []string{"TexCache0", "ZCache0", "ColorCache0"} {
		hits := last.Sim.Stats.Lookup(cache + ".hits").Value()
		misses := last.Sim.Stats.Lookup(cache + ".misses").Value()
		if hits+misses > 0 {
			b.ReportMetric(100*hits/(hits+misses), cache+".hit%")
		}
	}
	reportPipe(b, last, p.Frames)
}

func BenchmarkFig7(b *testing.B) {
	p := benchParams()
	for _, wl := range []string{"ut2004", "doom3"} {
		for _, mode := range []gpu.ScheduleMode{gpu.ScheduleWindow, gpu.ScheduleInOrderQueue} {
			var base float64
			for _, tus := range []int{3, 2, 1} {
				name := fmt.Sprintf("%s/%s/%dTU", wl, mode, tus)
				b.Run(name, func(b *testing.B) {
					var last *gpu.Pipeline
					for i := 0; i < b.N; i++ {
						last = runWorkloadOnce(b, gpu.CaseStudy(tus, mode), wl, p)
					}
					cycles := float64(last.Cycles())
					if tus == 3 {
						base = cycles
					}
					if base > 0 {
						b.ReportMetric(100*(cycles-base)/base, "degr%")
					}
					reportPipe(b, last, p.Frames)
				})
			}
		}
	}
}

func BenchmarkFig8_TexCache(b *testing.B) {
	p := benchParams()
	for _, tus := range []int{3, 2, 1} {
		b.Run(fmt.Sprintf("doom3/%dTU", tus), func(b *testing.B) {
			var last *gpu.Pipeline
			for i := 0; i < b.N; i++ {
				last = runWorkloadOnce(b, gpu.CaseStudy(tus, gpu.ScheduleWindow), "doom3", p)
			}
			var hits, misses, bytes float64
			for i := 0; i < tus; i++ {
				hits += last.Sim.Stats.Lookup(fmt.Sprintf("TexCache%d.hits", i)).Value()
				misses += last.Sim.Stats.Lookup(fmt.Sprintf("TexCache%d.misses", i)).Value()
				bytes += last.Sim.Stats.Lookup(fmt.Sprintf("MC.TexCache%d.readBytes", i)).Value()
			}
			if hits+misses > 0 {
				b.ReportMetric(100*hits/(hits+misses), "hit%")
			}
			b.ReportMetric(bytes/float64(last.Cycles()), "texB/cycle")
			reportPipe(b, last, p.Frames)
		})
	}
}

func BenchmarkFig9_Utilization(b *testing.B) {
	p := benchParams()
	configs := []struct {
		label string
		mode  gpu.ScheduleMode
		tus   int
	}{
		{"window-3TU", gpu.ScheduleWindow, 3},
		{"window-1TU", gpu.ScheduleWindow, 1},
		{"inorder-3TU", gpu.ScheduleInOrderQueue, 3},
	}
	for _, c := range configs {
		b.Run(c.label, func(b *testing.B) {
			var last *gpu.Pipeline
			cfg := gpu.CaseStudy(c.tus, c.mode)
			for i := 0; i < b.N; i++ {
				last = runWorkloadOnce(b, cfg, "doom3", p)
			}
			total := float64(last.Cycles())
			var shaderBusy, tuBusy float64
			for i := 0; i < cfg.NumShaders; i++ {
				shaderBusy += last.Sim.Stats.Lookup(fmt.Sprintf("Shader%d.busyCycles", i)).Value()
			}
			for i := 0; i < c.tus; i++ {
				tuBusy += last.Sim.Stats.Lookup(fmt.Sprintf("TextureUnit%d.busyCycles", i)).Value()
			}
			b.ReportMetric(100*shaderBusy/(float64(cfg.NumShaders)*total), "shaderUtil%")
			b.ReportMetric(100*tuBusy/(float64(c.tus)*total), "tuUtil%")
			reportPipe(b, last, p.Frames)
		})
	}
}

func BenchmarkFig10_Verify(b *testing.B) {
	p := benchParams()
	var diff, maxd int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(p)
		if err != nil {
			b.Fatal(err)
		}
		diff, maxd = res.DiffPixels, res.MaxDelta
	}
	if diff != 0 {
		b.Fatalf("simulator diverges from reference: %d pixels (max delta %d)", diff, maxd)
	}
	b.ReportMetric(float64(diff), "diffPixels")
}

func BenchmarkScaling(b *testing.B) {
	p := benchParams()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("unified-%d", n), func(b *testing.B) {
			cfg := gpu.BaselineUnified()
			cfg.NumShaders = n
			if n/2 > 1 {
				cfg.NumTextureUnits = n / 2
			}
			var last *gpu.Pipeline
			for i := 0; i < b.N; i++ {
				last = runWorkloadOnce(b, cfg, "ut2004", p)
			}
			reportPipe(b, last, p.Frames)
		})
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("split-%dv%df", 2*n, n), func(b *testing.B) {
			cfg := gpu.Baseline()
			cfg.NumShaders = n
			cfg.NumVertexShaders = 2 * n
			cfg.NumTextureUnits = n
			var last *gpu.Pipeline
			for i := 0; i < b.N; i++ {
				last = runWorkloadOnce(b, cfg, "ut2004", p)
			}
			reportPipe(b, last, p.Frames)
		})
	}
}

func BenchmarkEmbedded(b *testing.B) {
	p := benchParams()
	p.Aniso = 1
	var last *gpu.Pipeline
	for i := 0; i < b.N; i++ {
		last = runWorkloadOnce(b, gpu.Embedded(), "spinner", p)
	}
	reportPipe(b, last, p.Frames)
}

func BenchmarkAblation(b *testing.B) {
	p := benchParams()
	variants := []struct {
		name string
		mod  func(*gpu.Config)
	}{
		{"baseline", func(c *gpu.Config) {}},
		{"no-hz", func(c *gpu.Config) { c.HZEnabled = false }},
		{"no-zcompress", func(c *gpu.Config) { c.ZCompression = false }},
		{"no-earlyz", func(c *gpu.Config) { c.EarlyZ = false }},
		{"no-vcache", func(c *gpu.Config) { c.VertexCacheEntries = 1 }},
		{"scanline-fgen", func(c *gpu.Config) { c.FGenAlgorithm = gpu.FGenScanline }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := gpu.CaseStudy(2, gpu.ScheduleWindow)
			v.mod(&cfg)
			var last *gpu.Pipeline
			for i := 0; i < b.N; i++ {
				last = runWorkloadOnce(b, cfg, "doom3", p)
			}
			reportPipe(b, last, p.Frames)
		})
	}
	// The double-sided stencil extension: same scene, single-pass
	// shadow volumes.
	b.Run("two-sided-st", func(b *testing.B) {
		var last *gpu.Pipeline
		for i := 0; i < b.N; i++ {
			last = runWorkloadOnce(b, gpu.CaseStudy(2, gpu.ScheduleWindow), "doom3ds", p)
		}
		reportPipe(b, last, p.Frames)
	})
}
