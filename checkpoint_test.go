package attila_test

// Golden checkpoint/restore round trips through the differential oracle
// (coretest.Check), on runs watched the way cmd/attilasim watches them:
// every capture restores into a freshly built pipeline that must run to
// the end with every output byte-identical to the uninterrupted run's —
// frames, statistics, the metrics bus's windows and totals and, traced,
// the span dump. A pipeline takes no capture after its last command, so
// none at the final barrier; a file an older binary wrote there is
// restored from testdata (TestTracingCheckpointRoundTrip).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/core/coretest"
	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/obsv/trace"
	"attila/internal/workload"
)

// observed builds a run of the named workload at the benchmarks' size
// on the baseline asking for workers, watched: the watchdog armed, the
// metrics bus under a frozen clock (wall-time fields become constants,
// so its NDJSON is a pure function of simulation state), spans sampled
// one in rate (0: none) and, with interval > 0, both checkpointed with
// the pipeline every interval cycles. Its frames are the rendered ones,
// then the span NDJSON, the metrics NDJSON and the bus's totals (what
// /metrics.prom serves, restored or not).
func observed(tb testing.TB, name string, frames, workers int, rate uint64, interval int64) *coretest.Machine {
	tb.Helper()
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.Workers = workers
	cfg.WatchdogWindow = 1_000_000
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		tb.Fatal(err)
	}
	var col *trace.Collector
	var extra []chkpt.Snapshotter
	if rate > 0 {
		col = pipe.EnableSpanTracing(trace.Options{SampleRate: rate, Seed: 1})
		extra = append(extra, col)
	}
	frozen := time.Unix(1000, 0)
	bus := obsv.NewBus(pipe.Sim, obsv.BusOptions{
		Frames: func() int64 { return int64(pipe.CP.Frames()) },
		Goal:   p.MaxCycles,
		Spans:  col,
		Now:    func() time.Time { return frozen },
	})
	extra = append(extra, bus)
	cmds, _, err := workload.Build(name, pipe, workload.Params{
		Width: p.Width, Height: p.Height, Frames: frames, Aniso: p.Aniso, Seed: p.Seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m := &coretest.Machine{
		Sim:    pipe.Sim,
		Run:    func() error { return pipe.Run(cmds, p.MaxCycles) },
		Resume: func() error { return pipe.ResumeContext(context.Background(), p.MaxCycles) },
		Restore: func(file []byte) error {
			snap, err := chkpt.Read(bytes.NewReader(file))
			if err != nil {
				return err
			}
			return pipe.RestoreCheckpoint(snap, cmds, extra...)
		},
		Frames: func() (out [][]byte) {
			for _, f := range pipe.Frames() {
				out = append(out, f.Pix)
			}
			bus.Flush()
			var spans, metrics bytes.Buffer
			if col != nil {
				if err := col.WriteSpansNDJSON(&spans); err != nil {
					tb.Fatal(err)
				}
			}
			if err := bus.WriteNDJSON(&metrics); err != nil {
				tb.Fatal(err)
			}
			totals, _ := bus.StatTotals()
			return append(out, spans.Bytes(), metrics.Bytes(), fmt.Append(nil, totals))
		},
	}
	if interval > 0 {
		m.Path = filepath.Join(tb.TempDir(), "run.ckpt")
		m.Checkpoints = pipe.EnableCheckpoints(m.Path, name, interval, extra...)
		m.NoFinalCapture = true
	}
	return m
}

// exports returns the span and metrics NDJSON of an observed run.
func exports(out *coretest.Outputs) (spans, metrics []byte) {
	n := len(out.Frames)
	return out.Frames[n-3], out.Frames[n-2]
}

// The three-frame run captures at quiesced barriers — batch drains,
// about once a frame — and restores from each. The parallel4 rows set
// the ignored Workers: 4 (ROADMAP item 7) on the capturing side, the
// restoring side or both: a checkpoint from a config that asked for
// workers — as old ones did — restores like any other. The metrics
// NDJSON is the stats CSV throughout.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		capWorkers, resWorkers int
	}{
		{"serial-to-serial", 0, 0},
		{"serial-to-parallel4", 0, 4},
		{"parallel4-to-parallel4", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sims []*core.Simulator
			out := coretest.Check(t, func(tb testing.TB) *coretest.Machine {
				workers := tc.capWorkers
				if len(sims) >= 2 { // a restored machine
					workers = tc.resWorkers
				}
				m := observed(tb, "simple", 3, workers, 0, 20_000)
				sims = append(sims, m.Sim)
				return m
			})
			if len(out.Captures) < 2 {
				t.Fatalf("captures at %d barriers of a %d-cycle run: none mid-run", len(out.Captures), out.Cycles)
			}
			_, metrics := exports(out)
			ndjsonIsCSV(t, sims[0], metrics, out.CSV)
		})
	}
}

// ndjsonIsCSV checks that the metrics NDJSON is the stats CSV: one
// window per row, at the row's cycle, whose stats are the row with zero
// counter deltas dropped (a zero may stay: gauges are carried by value)
// and whose busy fractions are the row's busyCycles columns (each box's
// BoxInfo.Busy) over the window's cycles.
func ndjsonIsCSV(t *testing.T, sim *core.Simulator, ndjson, csv []byte) {
	t.Helper()
	busyOf := map[string]string{} // busy stat -> box
	for _, b := range sim.Boxes() {
		if c := core.InfoOf(b).Busy; c != nil {
			busyOf[c.StatName()] = b.BoxName()
		}
	}
	rows := strings.Split(strings.TrimSpace(string(csv)), "\n")
	header := strings.Split(rows[0], ",")
	windows := strings.Split(strings.TrimSpace(string(ndjson)), "\n")
	if len(windows) != len(rows)-1 {
		t.Fatalf("%d windows for %d CSV rows", len(windows), len(rows)-1)
	}
	for i, line := range windows {
		var w obsv.WindowSample
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			t.Fatal(err)
		}
		row := strings.Split(rows[i+1], ",")
		if cycle, _ := strconv.ParseInt(row[0], 10, 64); w.Cycle != cycle {
			t.Fatalf("window %d ends at cycle %d, its row at %d", i, w.Cycle, cycle)
		}
		present, busy := 0, 0
		for c, name := range header[1:] {
			v, err := strconv.ParseFloat(row[c+1], 64)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := w.Stats[name]
			if got != v || (!ok && v != 0) {
				t.Fatalf("window %d (cycle %d): %s = %v (present %v), row %v", i, w.Cycle, name, got, ok, v)
			}
			if ok {
				present++
			}
			if box, ok := busyOf[name]; ok && v != 0 {
				busy++
				if want := v / float64(w.Cycles); w.Busy[box] != want {
					t.Fatalf("window %d (cycle %d): busy[%s] = %v, row gives %v", i, w.Cycle, box, w.Busy[box], want)
				}
			}
		}
		if len(w.Stats) != present || len(w.Busy) != busy {
			t.Fatalf("window %d (cycle %d): %d stats, %d busy boxes; %d are columns of the row, %d busy", i, w.Cycle, len(w.Stats), len(w.Busy), present, busy)
		}
	}
}

// TestCheckpointConfigGuard: restoring into a differently configured
// machine must be refused with a typed mismatch, not misapplied.
func TestCheckpointConfigGuard(t *testing.T) {
	p := benchParams()
	pipe, err := gpu.New(gpu.Baseline(), p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	// Capture at cycle 0 — the machine is trivially quiesced before
	// the run starts.
	snap, err := pipe.Checkpoint("simple")
	if err != nil {
		t.Fatal(err)
	}
	other := gpu.Baseline()
	other.NumShaders++
	pipe2, err := gpu.New(other, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe2.RestoreCheckpoint(snap, nil); err == nil {
		t.Fatal("restore into a different configuration succeeded")
	}
}
