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
// the test measures the MARGINAL rate: allocations of a 4-frame run
// minus a 1-frame run, divided by the extra cycles. Once the pools
// are warm the clock loop allocates almost nothing (< 0.05
// allocs/cycle); before the purge it was ~2.5 per cycle, every cycle.
// The first frame's own allocations are held to a ratchet, the 3 188
// measured with the pools growing a slab at a time plus 10 %: lower
// it when a change lowers them.
func TestPipelineRunAllocBudget(t *testing.T) {
	cfg := gpu.Baseline()
	measure := func(frames int) (allocs uint64, cycles int64) {
		p := benchParams()
		p.Frames = frames
		var pipe *gpu.Pipeline
		a := mallocsDuring(func() { pipe = runWorkloadOnce(t, cfg, "simple", p) })
		return a, pipe.Cycles()
	}
	measure(1) // warm the process (lazy runtime init, file caches)
	allocs1, cycles1 := measure(1)
	allocs4, cycles4 := measure(4)
	if cycles4 <= cycles1 || allocs4 < allocs1 {
		t.Fatalf("unexpected scaling: %d allocs/%d cycles vs %d allocs/%d cycles",
			allocs1, cycles1, allocs4, cycles4)
	}
	perCycle := float64(allocs4-allocs1) / float64(cycles4-cycles1)
	t.Logf("marginal %d allocs over %d cycles = %.4f allocs/cycle (first frame: %d allocs)",
		allocs4-allocs1, cycles4-cycles1, perCycle, allocs1)
	const budget = 0.05
	if perCycle > budget {
		t.Fatalf("allocation budget exceeded: %.4f allocs/cycle > %.2f — a hot-path allocation crept back in",
			perCycle, budget)
	}
	const firstFrame = 3507
	if allocs1 > firstFrame {
		t.Fatalf("the first frame made %d allocations, more than %d — a pool lost its slabs, or a set-up path began to allocate",
			allocs1, firstFrame)
	}
}
