package main

import (
	"math"
	"sort"
)

// metricDef names one number the benchmark prints. The tables below are
// the benchmark's vocabulary; BENCHMARK.json mirrors them and
// TestBenchmarkJSONMatchesTables keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// workloadDef is one set of inputs. Why records the layer the workload
// was built to load, so a later change can name the workload that
// exercises its mechanism and the one that bypasses it.
type workloadDef struct {
	Name     string
	Why      string
	Threads  int // goroutines it keeps busy: warns (suite: skips) when fewer CPUs are online
	NewBench func(e *env) runner
}

var workloads = []workloadDef{
	{Name: "ut2004-tex", Threads: 1, NewBench: func(e *env) runner { return newSceneWorkload(e, sceneUT2004Tex) },
		Why: "multitexture + 8x aniso terrain, unified baseline, 256x192x4: TextureUnit/TexCache/texemu and fixed-function fragment programs do most of the work"},
	{Name: "shader-alu", Threads: 1, NewBench: func(e *env) runner { return newSceneWorkload(e, sceneShaderALU) },
		Why: "fullscreen quad, ~100-instruction branch-free ARB fragment program with no TEX: shaderemu/ShaderUnit dominate and texture units idle, so a texemu gain must show nothing"},
	{Name: "doom3-stencil", Threads: 1, NewBench: func(e *env) runner { return newSceneWorkload(e, sceneDoom3Stencil) },
		Why: "depth-only + stencil-volume + lit passes at 1 TU, 320x240x3: ZStencil/HZ/Z-compression/ColorWrite and the memory controller carry it"},
	{Name: "spinner-geom", Threads: 1, NewBench: func(e *env) runner { return newSceneWorkload(e, sceneSpinnerGeom) },
		Why: "tiny scene on the embedded machine for 48 frames: most boxes idle most cycles, so per-cycle framework cost (signals, clock loop, stats) dominates"},
	{Name: "ut2004-par2", Threads: 2, NewBench: func(e *env) runner { return newSceneWorkload(e, sceneUT2004Par2) },
		Why: "the ut2004-tex scene at 2 frames with Workers=2: same layers through the parallel clock loop (spin barrier, LPT sharding, skew machinery)"},
	{Name: "jobd-sweep", Threads: 2, NewBench: newSweepWorkload,
		Why: "closed loop, one jobd.RunSweep of 12 jobs on 2 workers with checkpoints and span sampling: admission, supervisor, checkpoint engine, manifests, fsync'd artifacts"},
}

// End-to-end metrics are host-side; the three times are in calibrated
// seconds (calibrate.go) and bounded at the contract's maximum because
// of what the reference sandbox does to host time (README, "Noise").
// Allocations and RSS repeat to a few percent at worst. fail_share is
// not listed: it is 0 on a healthy run, and the result line carries it
// as failed/attempted.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_kcycles_per_s", Unit: "kcycles/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_kcycle", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	// emu/shaderemu
	{Name: "shaderemu.alu_minstr_per_s", Unit: "Minstr/s", Better: "higher"},
	{Name: "shaderemu.ff_minstr_per_s", Unit: "Minstr/s", Better: "higher"},
	{Name: "shaderemu.step_ns_per_instr", Unit: "ns", Better: "lower"},
	// emu/texemu
	{Name: "texemu.bilinear_mquads_per_s", Unit: "Mquads/s", Better: "higher"},
	{Name: "texemu.trilinear_mquads_per_s", Unit: "Mquads/s", Better: "higher"},
	{Name: "texemu.aniso8_mquads_per_s", Unit: "Mquads/s", Better: "higher"},
	{Name: "texemu.plan_ns_per_quad", Unit: "ns", Better: "lower"},
	{Name: "texemu.dxt_decode_mtiles_per_s", Unit: "Mtiles/s", Better: "higher"},
	// emu/rastemu, emu/clipemu
	{Name: "rastemu.setup_mtri_per_s", Unit: "Mtri/s", Better: "higher"},
	{Name: "rastemu.frag_mfrag_per_s", Unit: "Mfrag/s", Better: "higher"},
	{Name: "clipemu.classify_mtri_per_s", Unit: "Mtri/s", Better: "higher"},
	// emu/fragemu
	{Name: "fragemu.ztest_mfrag_per_s", Unit: "Mfrag/s", Better: "higher"},
	{Name: "fragemu.blend_mfrag_per_s", Unit: "Mfrag/s", Better: "higher"},
	{Name: "fragemu.zcompress_mblocks_per_s", Unit: "Mblocks/s", Better: "higher"},
	// core
	{Name: "core.signal_rw_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fifo_pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.idle_boxclock_ns", Unit: "ns", Better: "lower"},
	{Name: "core.par2_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.par2_speedup", Unit: "ratio", Better: "higher"},
	// mem
	{Name: "mem.ctrl_seq_mtx_per_s", Unit: "Mtx/s", Better: "higher"},
	{Name: "mem.ctrl_rand_rw_mtx_per_s", Unit: "Mtx/s", Better: "higher"},
	{Name: "mem.ctrl_seq_sim_bytes_per_cycle", Unit: "B/cycle", Better: "higher"},
	{Name: "mem.cache_hit_ns", Unit: "ns", Better: "lower"},
	// gpu: host-time share per box class (traced rep) ...
	{Name: "gpu.share.shader", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.texunit", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.zstencil", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.colorwrite", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.memctrl", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.geometry", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.raster", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.other", Unit: "ratio", Better: "lower"},
	{Name: "gpu.share.barrier", Unit: "ratio", Better: "lower"},
	// ... exact simulated counts: a host-speed-only change leaves all of
	// these identical ...
	{Name: "gpu.sim_cycles", Unit: "count", Better: "lower"},
	{Name: "gpu.sim_fps", Unit: "1/s", Better: "higher"},
	{Name: "gpu.sim_shader_instr", Unit: "count", Better: "lower"},
	{Name: "gpu.sim_tex_requests", Unit: "count", Better: "lower"},
	{Name: "gpu.sim_texcache_hit_pct", Unit: "%", Better: "higher"},
	{Name: "gpu.sim_fragments", Unit: "count", Better: "lower"},
	{Name: "gpu.sim_mc_bytes", Unit: "count", Better: "lower"},
	{Name: "gpu.sim_util.shader", Unit: "ratio", Better: "higher"},
	{Name: "gpu.sim_util.texunit", Unit: "ratio", Better: "higher"},
	{Name: "gpu.sim_util.rop", Unit: "ratio", Better: "higher"},
	{Name: "gpu.sim_util.mc", Unit: "ratio", Better: "higher"},
	// ... and host cost per simulated event.
	{Name: "gpu.host_ns_per_shader_instr", Unit: "ns", Better: "lower"},
	{Name: "gpu.host_ns_per_fragment", Unit: "ns", Better: "lower"},
	// gl / workload / trace / refrender
	{Name: "workload.build_ms", Unit: "ms", Better: "lower"},
	{Name: "gl.commands", Unit: "count", Better: "lower"},
	{Name: "trace.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "refrender.exec_s", Unit: "s", Better: "lower"},
	{Name: "refrender.timing_cost_x", Unit: "ratio", Better: "lower"},
	{Name: "refrender.diff_pixels", Unit: "count", Better: "lower"},
	// chkpt / obsv
	{Name: "chkpt.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "chkpt.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "chkpt.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "chkpt.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "chkpt.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "obsv.bus_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obsv.profiler_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obsv.spans64_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "chkpt.every50k_overhead_pct", Unit: "%", Better: "lower"},
	// jobd
	{Name: "jobd.bare_pool_s", Unit: "s", Better: "lower"},
	{Name: "jobd.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "jobd.submit_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "jobd.checkpoints", Unit: "count", Better: "lower"},
	{Name: "jobd.attempts", Unit: "count", Better: "lower"},
	// bench
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.calibration_s", Unit: "s", Better: "lower"},
}

// metric is one reported value; the result line's wire format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and refuses names that are not in
// the table it was made from, so a typo fails loudly instead of
// producing an orphan number.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		s.defs[d.Name] = d
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	d, ok := s.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.vals[name] = metric{Value: v, Unit: d.Unit}
}

// missing lists table names that never got a value.
func (s *metricSet) missing() []string {
	var out []string
	for name := range s.defs {
		if _, ok := s.vals[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance spread is computed with; it needs two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; with
// fewer than two samples there is no spread to speak of.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return math.Abs(q3-q1) / math.Abs(m)
	}
	return 0
}
