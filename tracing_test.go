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
	"context"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/workload"
)

// tracingHarness is a pipeline with span tracing attached ahead of
// the metrics bus (fold-before-sample ordering) and a stepped clock
// so the NDJSON is a pure function of simulation state.
type tracingHarness struct {
	pipe *gpu.Pipeline
	col  *trace.Collector
	bus  *obsv.Bus
	cmds []gpu.Command
}

func newTracingHarness(t *testing.T, workers int, rate uint64, frames int) *tracingHarness {
	t.Helper()
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.Workers = workers
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	col := pipe.EnableSpanTracing(trace.Options{SampleRate: rate, Seed: 1})
	now := time.Unix(1000, 0)
	bus := obsv.NewBus(pipe.Sim, obsv.BusOptions{
		Window: 10000,
		Frames: func() int64 { return int64(pipe.CP.Frames()) },
		Goal:   p.MaxCycles,
		Spans:  col,
		Now: func() time.Time {
			now = now.Add(time.Millisecond)
			return now
		},
	})
	cmds, _, err := workload.Build("simple", pipe, workload.Params{
		Width: p.Width, Height: p.Height, Frames: frames, Aniso: p.Aniso, Seed: p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &tracingHarness{pipe: pipe, col: col, bus: bus, cmds: cmds}
}

// exports reduces a finished harness to the tracing artifacts.
func (h *tracingHarness) exports(t *testing.T) (spans, metrics []byte) {
	t.Helper()
	h.bus.Flush()
	var sp, nd bytes.Buffer
	if err := h.col.WriteSpansNDJSON(&sp); err != nil {
		t.Fatal(err)
	}
	if err := h.bus.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	return sp.Bytes(), nd.Bytes()
}

func tracingRun(t *testing.T, workers int) (spans, metrics []byte, sampled uint64) {
	t.Helper()
	h := newTracingHarness(t, workers, 16, benchParams().Frames)
	if err := h.pipe.Run(h.cmds, benchParams().MaxCycles); err != nil {
		t.Fatal(err)
	}
	spans, metrics = h.exports(t)
	return spans, metrics, h.col.Snapshot().Spans
}

// TestTracingSerialVsParallel: the sampled span selection and every
// derived artifact must not depend on the (ignored) worker count.
func TestTracingSerialVsParallel(t *testing.T) {
	spans, metrics, sampled := tracingRun(t, 0)
	if sampled == 0 {
		t.Fatal("no spans sampled at 1/16 — tracing is not wired into the pipeline")
	}
	if len(bytes.TrimSpace(spans)) == 0 {
		t.Fatal("span NDJSON is empty")
	}
	if !bytes.Contains(metrics, []byte(`"lat"`)) {
		t.Fatal("metrics NDJSON has no latency windows despite attached collector")
	}
	for _, workers := range []int{2, 4} {
		pspans, pmetrics, psampled := tracingRun(t, workers)
		if psampled != sampled {
			t.Errorf("workers=%d sampled %d spans, serial %d", workers, psampled, sampled)
		}
		if !bytes.Equal(pspans, spans) {
			t.Errorf("workers=%d: span NDJSON differs from serial", workers)
		}
		if !bytes.Equal(pmetrics, metrics) {
			t.Errorf("workers=%d: metrics NDJSON (latency windows) differs from serial", workers)
		}
	}
}

// TestTracingCheckpointRoundTrip: capture mid-run with the collector
// as an extra snapshotter, restore into a fresh machine, and require
// the resumed run's span dump and latency windows to be
// byte-identical to the uninterrupted run — the histograms, the span
// ring, and the sampling sequence counters all round-trip.
func TestTracingCheckpointRoundTrip(t *testing.T) {
	ref := newTracingHarness(t, 0, 16, 3)
	var snapBytes []byte
	var captureAt int64 = 20_000
	ref.pipe.Sim.OnEndCycle(func(cycle int64) {
		if snapBytes != nil || cycle < captureAt || !ref.pipe.Quiesced() {
			return
		}
		meta := chkpt.Meta{
			Cycle:    ref.pipe.Sim.Cycle(),
			Config:   ref.pipe.ConfigFingerprint(),
			Workload: "simple",
		}
		snap := chkpt.Capture(meta, append(ref.pipe.Snapshotters(), ref.col, ref.bus))
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Errorf("encode checkpoint: %v", err)
			return
		}
		snapBytes = buf.Bytes()
	})
	if err := ref.pipe.Run(ref.cmds, benchParams().MaxCycles); err != nil {
		t.Fatal(err)
	}
	refSpans, refMetrics := ref.exports(t)
	if snapBytes == nil {
		t.Fatalf("no quiesced barrier after cycle %d in a %d-cycle run", captureAt, ref.pipe.Cycles())
	}
	if ref.col.Snapshot().Spans == 0 {
		t.Fatal("reference run sampled no spans")
	}

	res := newTracingHarness(t, 4, 16, 3)
	snap, err := chkpt.Read(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.pipe.RestoreCheckpoint(snap, res.cmds, res.col, res.bus); err != nil {
		t.Fatal(err)
	}
	if err := res.pipe.ResumeContext(context.Background(), benchParams().MaxCycles); err != nil {
		t.Fatal(err)
	}
	resSpans, resMetrics := res.exports(t)

	if !bytes.Equal(resSpans, refSpans) {
		t.Error("span NDJSON differs after checkpoint restore")
	}
	if !bytes.Equal(resMetrics, refMetrics) {
		t.Error("metrics NDJSON (latency windows) differs after checkpoint restore")
	}
	if got, want := res.col.Snapshot().Spans, ref.col.Snapshot().Spans; got != want {
		t.Errorf("resumed run sampled %d spans, uninterrupted %d", got, want)
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
