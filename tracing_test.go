package attila_test

// Request-tracing determinism and cost gates. The span sampler keys
// off per-client issue sequence numbers, not scheduling-dependent
// object IDs, so the sampled span set — and everything derived from
// it: the span NDJSON dump, the latency windows in the metrics
// NDJSON, the histogram snapshots — must be byte-identical for any
// worker count and must survive a checkpoint/restore unchanged. The
// alloc test bounds the marginal heap cost per sampled span so
// tracing stays cheap enough to leave on in production sweeps.

import (
	"bytes"
	"fmt"
	"testing"

	"attila/internal/core/coretest"
	"attila/internal/gpu"
	"attila/internal/obsv/trace"
	"attila/internal/workload"
)

// TestTracingSerialVsParallel: the sampled span selection and every
// derived artifact must not depend on the (ignored) worker count.
func TestTracingSerialVsParallel(t *testing.T) {
	serial := coretest.Record(t, observed(t, "simple", 1, 0, 16, 0))
	spans, metrics := exports(serial)
	if serial.Err != "" {
		t.Fatal(serial.Err)
	}
	if len(bytes.TrimSpace(spans)) == 0 {
		t.Fatal("no spans sampled at 1/16 — tracing is not wired into the pipeline")
	}
	if !bytes.Contains(metrics, []byte(`"lat"`)) {
		t.Fatal("metrics NDJSON has no latency windows despite attached collector")
	}
	for _, workers := range []int{2, 4} {
		for _, d := range serial.Diff(fmt.Sprintf("with workers=%d", workers), coretest.Record(t, observed(t, "simple", 1, workers, 16, 0))) {
			t.Error(d)
		}
	}
}

// TestTracingCheckpointRoundTrip: with the span collector checkpointed
// beside the bus, a run restored from any capture (on a machine asking
// for four workers) has the span dump and latency windows of the
// uninterrupted run — the histograms, the span ring, and the sampling
// sequence counters all round-trip.
func TestTracingCheckpointRoundTrip(t *testing.T) {
	built := 0
	out := coretest.Check(t, func(tb testing.TB) *coretest.Machine {
		workers := 0
		if built++; built > 2 { // a restored machine
			workers = 4
		}
		return observed(tb, "simple", 3, workers, 16, 20_000)
	})
	if spans, _ := exports(out); len(out.Captures) < 2 || len(bytes.TrimSpace(spans)) == 0 {
		t.Fatalf("%d captures, %d bytes of spans: the run shows nothing", len(out.Captures), len(spans))
	}
}

// TestTracingAllocBudget bounds the marginal heap cost of tracing:
// the extra allocations of a traced run over an untraced run, divided
// by the sampled span count. Pooled span records and the
// pre-allocated ring keep this to a couple of allocations per sampled
// span (ring growth, map fills); per-span JSON costs only happen at
// export, outside the measured window.
func TestTracingAllocBudget(t *testing.T) {
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.Workers = 0
	measure := func(rate uint64) (allocs uint64, sampled uint64) {
		pipe, err := gpu.New(cfg, p.Width, p.Height)
		if err != nil {
			t.Fatal(err)
		}
		var col *trace.Collector
		if rate > 0 {
			col = pipe.EnableSpanTracing(trace.Options{SampleRate: rate, Seed: 1})
		}
		cmds, _, err := workload.Build("simple", pipe, workload.Params{
			Width: p.Width, Height: p.Height, Frames: p.Frames, Aniso: p.Aniso, Seed: p.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := mallocsDuring(func() {
			if err := pipe.Run(cmds, p.MaxCycles); err != nil {
				t.Fatal(err)
			}
		})
		if col != nil {
			sampled = col.Snapshot().Spans
		}
		return a, sampled
	}
	measure(0) // warm the process
	off, _ := measure(0)
	on, sampled := measure(16)
	if sampled == 0 {
		t.Fatal("no spans sampled at 1/16")
	}
	var perSpan float64
	if on > off {
		perSpan = float64(on-off) / float64(sampled)
	}
	t.Logf("tracing off: %d allocs; on at 1/16: %d allocs, %d sampled spans = %.3f allocs/span",
		off, on, sampled, perSpan)
	const budget = 4.0
	if perSpan > budget {
		t.Fatalf("tracing allocation budget exceeded: %.3f allocs per sampled span > %.1f",
			perSpan, budget)
	}
}
