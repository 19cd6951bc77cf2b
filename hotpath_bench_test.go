package attila_test

// Hot-path allocation gate: TestPipelineRunAllocBudget measures host
// heap allocations across a full simple-scene run and fails when the
// steady-state rate creeps above a small per-cycle budget, so a
// reintroduced per-quad or per-transaction allocation shows up in
// plain `go test ./...`. Host speed is the benchmark's business
// (bench/README.md).

import (
	"runtime"
	"testing"

	"attila/internal/gpu"
)

// mallocsDuring reports heap allocations for one run.
func mallocsDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestPipelineRunAllocBudget bounds the pipeline's steady-state
// allocation rate. A fresh pipeline's first frame allocates while the
// free lists, signal rings and queues grow to working-set size, so
// the test measures the MARGINAL rate: allocations of a longer run
// minus a 1-frame run, over what the extra frames did.
//
// On the simple scene, per extra cycle: once the pools are warm the
// clock loop allocates almost nothing (< 0.05 allocs/cycle); before the
// purge it was ~2.5 per cycle, every cycle. The first frame's own
// allocations are held to a ratchet, the 1 603 measured with the
// machine built from slabs (3 155 before, with the geometry path
// pooled), plus 10 %: lower it when a change lowers them.
//
// The simple scene draws a handful of vertices, so a per-vertex
// allocation is invisible there. On ut2004 the bound is per extra
// vertex shaded (Streamer.vertices): a marginal vertex made ~6.8
// allocations when the geometry path allocated a vertex, a cache entry,
// a triangle and a set-up triangle per hop, ~0.11 once that path was
// pooled, and ~0.063 since machines are built from slabs, the extra
// frames' command stream and statistics rows among them. A warm-up run
// builds the scene's textures into the process-wide cache first: left
// in the one-frame run, their build made the rate read ~0.021 when the
// test ran alone and ~0.063 in the whole suite. The bound is a ratchet
// like the first frame's, a little over twice the measured rate: lower
// it when a change lowers the rate.
func TestPipelineRunAllocBudget(t *testing.T) {
	cfg := gpu.Baseline()
	measure := func(scene string, frames int) (allocs uint64, pipe *gpu.Pipeline) {
		p := benchParams()
		p.Frames = frames
		a := mallocsDuring(func() { pipe = runWorkloadOnce(t, cfg, scene, p) })
		return a, pipe
	}
	measure("simple", 1) // warm the process (lazy runtime init, file caches)
	allocs1, pipe1 := measure("simple", 1)
	allocs4, pipe4 := measure("simple", 4)
	cycles1, cycles4 := pipe1.Cycles(), pipe4.Cycles()
	if cycles4 <= cycles1 || allocs4 < allocs1 {
		t.Fatalf("unexpected scaling: %d allocs/%d cycles vs %d allocs/%d cycles",
			allocs1, cycles1, allocs4, cycles4)
	}
	perCycle := float64(allocs4-allocs1) / float64(cycles4-cycles1)
	t.Logf("simple: marginal %d allocs over %d cycles = %.4f allocs/cycle (first frame: %d allocs)",
		allocs4-allocs1, cycles4-cycles1, perCycle, allocs1)
	const budget = 0.05
	if perCycle > budget {
		t.Errorf("allocation budget exceeded: %.4f allocs/cycle > %.2f — a hot-path allocation crept back in",
			perCycle, budget)
	}
	const firstFrame = 1763
	if allocs1 > firstFrame {
		t.Errorf("the first frame made %d allocations, more than %d — a pool lost its slabs, or a set-up path began to allocate",
			allocs1, firstFrame)
	}

	vertices := func(p *gpu.Pipeline) float64 { return p.Sim.Stats.Lookup("Streamer.vertices").Value() }
	measure("ut2004", 1) // build the scene's textures
	allocs1, pipe1 = measure("ut2004", 1)
	allocs3, pipe3 := measure("ut2004", 3)
	perVertex := float64(allocs3-allocs1) / (vertices(pipe3) - vertices(pipe1))
	t.Logf("ut2004: marginal %d allocs over %.0f vertices = %.3f allocs/vertex",
		allocs3-allocs1, vertices(pipe3)-vertices(pipe1), perVertex)
	const vertexBudget = 0.13
	if perVertex > vertexBudget {
		t.Errorf("vertex allocation budget exceeded: %.3f allocs/vertex > %.2f — the geometry path allocates per vertex again",
			perVertex, vertexBudget)
	}
}
