// Package obsv is the observability layer of the simulator: a windowed
// metrics bus reading the statistics interval rows, a per-box host-time
// profiler, a Perfetto/Chrome trace-event exporter, and the run
// manifest. Everything it records reaches the user as a file written
// when the run ends.
//
// Everything here is stdlib-only and reads simulation state only at
// the cycle barrier (the bus as a statistics row is recorded), so
// attaching any of it never changes simulation results — the paper's
// end-of-run CSV and the signal trace stay bit-identical.
package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"attila/internal/core"
	"attila/internal/obsv/trace"
)

// BusOptions configures the windowed metrics bus. A window is the
// simulator's statistics interval: the bus records one window per row
// of the stats CSV, and keeps the newest Depth of them.
type BusOptions struct {
	// Depth is the ring capacity in windows; older windows are evicted,
	// so a run with more stats rows than Depth loses its leading ones.
	// <= 0 selects 512.
	Depth int
	// Frames, when non-nil, is read at every window boundary (at the
	// cycle barrier) to record rendering progress — typically
	// CommandProcessor.Frames.
	Frames func() int64
	// Now overrides the wall-clock source, for deterministic tests.
	// Nil selects time.Now.
	Now func() time.Time
	// Spans, when non-nil, is the span collector whose per-client
	// latency histograms the bus diffs at each window boundary into
	// windowed p50/p90/p99 summaries. The collector folds as a
	// publication, before the statistics row is recorded.
	Spans *trace.Collector
}

// LatencyWindow is one client's span-latency summary for a single
// window: how many sampled requests terminated and the percentile
// upper bounds of their total (issue-to-retire) latency in cycles.
type LatencyWindow struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// WatchdogStatus is the watchdog fingerprint snapshot embedded in
// window samples.
type WatchdogStatus struct {
	LastProgress int64  `json:"lastProgress"` // last cycle with observed activity
	Fingerprint  uint64 `json:"fingerprint"`  // cumulative activity count
	Quiet        int64  `json:"quietCycles"`  // cycles since last activity
}

// WindowSample is one window of the metrics bus: the stats CSV row of
// its cycle (zero counter deltas dropped), derived per-box busy
// fractions and queue occupancy, per-signal in-flight objects, and the
// host-time rate. All fields except WallNs and CPS are functions of
// simulation state only and therefore identical from run to run.
type WindowSample struct {
	Seq      int64                     `json:"seq"`
	Cycle    int64                     `json:"cycle"`  // the row's cycle: last executed cycle of the window
	Cycles   int64                     `json:"cycles"` // cycles covered by the window
	Frames   int64                     `json:"frames,omitempty"`
	WallNs   int64                     `json:"wallNs"`            // host time spent in the window
	CPS      float64                   `json:"cps"`               // simulated cycles per host second
	Final    bool                      `json:"final,omitempty"`   // partial flush window at end of run
	Stats    map[string]float64        `json:"stats,omitempty"`   // counter deltas; gauges by value
	Busy     map[string]float64        `json:"busy,omitempty"`    // per-box busy fraction of the window
	Queues   map[string]float64        `json:"queues,omitempty"`  // occupancy fraction (count when unbounded)
	Signals  map[string]int64          `json:"signals,omitempty"` // in-flight objects per signal (nonzero only)
	Lat      map[string]*LatencyWindow `json:"lat,omitempty"`     // per-client span latency percentiles
	Watchdog *WatchdogStatus           `json:"watchdog,omitempty"`
}

// busyEntry names a box and the row column of its busy counter
// (BoxInfo.Busy).
type busyEntry struct {
	name string
	col  int
}

// Bus turns every statistics row into a window of a ring of
// time-series windows, with derived rates beside the row. It attaches
// to a built simulator with NewBus and from then on reads each row as
// the StatManager records it; readers (the NDJSON and Perfetto
// exporters, the checkpoint section) take snapshots under a mutex the
// bus holds only while it records a window.
type Bus struct {
	sim    *core.Simulator
	depth  int
	now    func() time.Time
	frames func() int64

	// Captured at attach time; simulation wiring is immutable during a
	// run.
	stats []core.Stat // a row's columns
	gauge []bool
	busy  []busyEntry
	stall []func() []core.QueueStat // every BoxInfo.Queues, in registration order
	sigs  []*core.Signal
	spans *trace.Collector
	hists map[string]trace.Histogram // per-client baselines at the last window

	mu        sync.Mutex
	ring      []*WindowSample
	seq       int64
	prevCycle int64 // last sampled cycle (-1 before the first window)
	lastWall  time.Time
}

// NewBus attaches a metrics bus to the simulator. Call after the
// pipeline is fully built (all boxes, signals and stats registered)
// and before Run. With a statistics interval of 0 the simulator
// records no rows, and the bus no windows.
func NewBus(sim *core.Simulator, opts BusOptions) *Bus {
	if opts.Depth <= 0 {
		opts.Depth = 512
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	b := &Bus{
		sim:    sim,
		depth:  opts.Depth,
		now:    now,
		frames: opts.Frames,
		stats:  sim.Stats.Registered(),
		sigs:   sim.Binder.Signals(),
		spans:  opts.Spans,
	}
	if b.spans != nil {
		b.hists = make(map[string]trace.Histogram)
	}
	col := make(map[core.Stat]int, len(b.stats))
	for i, st := range b.stats {
		_, isGauge := st.(*core.Gauge)
		b.gauge = append(b.gauge, isGauge)
		col[st] = i
	}
	for _, box := range sim.Boxes() {
		info := core.InfoOf(box)
		// A busy counter is a registered stat (its box's busyCycles);
		// one that is not has no column, and no busy fraction.
		if i, ok := col[info.Busy]; ok {
			b.busy = append(b.busy, busyEntry{name: box.BoxName(), col: i})
		}
		if info.Queues != nil {
			b.stall = append(b.stall, info.Queues)
		}
	}
	b.prevCycle = -1
	b.lastWall = now()
	sim.Stats.OnRow(b.row)
	return b
}

// row is the bus's core.RowFunc: it records the row as a window, with
// the derived state read at the same barrier. The run's final partial
// window is the row StatManager.Flush records, which RunContext does
// on every path.
func (b *Bus) row(cycle int64, deltas []float64, final bool) {
	now := b.now()
	s := &WindowSample{
		Cycle:  cycle,
		Final:  final,
		Stats:  make(map[string]float64),
		Busy:   make(map[string]float64),
		Queues: make(map[string]float64),
	}
	for i, st := range b.stats {
		if d := deltas[i]; b.gauge[i] || d != 0 {
			s.Stats[st.StatName()] = d
		}
	}
	for _, sig := range b.sigs {
		p, c := sig.Traffic()
		if p != c {
			if s.Signals == nil {
				s.Signals = make(map[string]int64)
			}
			s.Signals[sig.Name()] = int64(p - c)
		}
	}
	for _, queues := range b.stall {
		for _, q := range queues() {
			if q.Capacity > 0 {
				if q.Occupied != 0 {
					s.Queues[q.Name] = float64(q.Occupied) / float64(q.Capacity)
				}
			} else if q.Occupied != 0 {
				s.Queues[q.Name] = float64(q.Occupied)
			}
		}
	}
	if since, total, ok := b.sim.WatchdogProgress(); ok {
		s.Watchdog = &WatchdogStatus{
			LastProgress: since,
			Fingerprint:  total,
			Quiet:        cycle - since,
		}
	}
	if b.frames != nil {
		s.Frames = b.frames()
	}
	if b.spans != nil {
		cur := b.spans.TotalHists(nil)
		for name, h := range cur {
			d := h.Sub(b.hists[name])
			if d.N == 0 {
				continue
			}
			if s.Lat == nil {
				s.Lat = make(map[string]*LatencyWindow)
			}
			s.Lat[name] = &LatencyWindow{
				Count: d.N, P50: d.Quantile(0.50), P90: d.Quantile(0.90), P99: d.Quantile(0.99),
			}
		}
		b.hists = cur
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	s.Seq = b.seq
	b.seq++
	s.Cycles = cycle - b.prevCycle
	s.WallNs = now.Sub(b.lastWall).Nanoseconds()
	if s.WallNs > 0 {
		s.CPS = float64(s.Cycles) / (float64(s.WallNs) / 1e9)
	}
	for _, e := range b.busy {
		if d := deltas[e.col]; d != 0 && s.Cycles > 0 {
			s.Busy[e.name] = d / float64(s.Cycles)
		}
	}
	b.prevCycle = cycle
	b.lastWall = now
	b.ring = append(b.ring, s)
	if len(b.ring) > b.depth {
		b.ring = b.ring[len(b.ring)-b.depth:]
	}
}

// Snapshot returns the recorded windows, oldest first. Samples are
// immutable once recorded; the returned slice is a copy.
func (b *Bus) Snapshot() []*WindowSample {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*WindowSample(nil), b.ring...)
}

// WriteNDJSON writes every recorded window as one JSON object per
// line (newline-delimited JSON), oldest first. Map keys are emitted
// sorted, so the output for a given simulation is deterministic up to
// the wall-clock fields.
func (b *Bus) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, s := range b.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
