// Package obsv is the live observability layer of the simulator: a
// windowed metrics bus reading the statistics interval rows, a per-box
// host-time profiler, a Perfetto/Chrome trace-event exporter, the
// attilasim status server, and the run manifest.
//
// Everything here is stdlib-only and reads simulation state only at
// the cycle barrier (the bus as a statistics row is recorded) or
// through atomics, so attaching any of it never changes simulation
// results — the paper's end-of-run CSV and the signal trace stay
// bit-identical.
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
// of the stats CSV.
type BusOptions struct {
	// Depth is the ring capacity in windows; older windows are evicted.
	// <= 0 selects 512.
	Depth int
	// Frames, when non-nil, is read at every window boundary (at the
	// cycle barrier) to record rendering progress — typically
	// CommandProcessor.Frames.
	Frames func() int64
	// Goal, when > 0, is the cycle budget used for the ETA estimate.
	Goal int64
	// GoalFrames, when > 0, is the total frame count of the workload;
	// frame-based ETA is preferred over the cycle budget when known.
	GoalFrames int64
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
// window samples and /progress responses.
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
// the StatManager records it; readers (the status server, the
// NDJSON/Perfetto exporters) take snapshots under a mutex the bus
// holds only while it records a window.
type Bus struct {
	sim    *core.Simulator
	depth  int
	now    func() time.Time
	frames func() int64
	goal   int64
	goalFr int64

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
	prevCycle int64     // last sampled cycle (-1 before the first window)
	totals    []float64 // every stat's cumulative value at the last window, for StatTotals
	lastWall  time.Time
	startWall time.Time
	flushed   bool
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
		goal:   opts.Goal,
		goalFr: opts.GoalFrames,
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
	b.totals = make([]float64, len(b.stats))
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
	b.startWall = b.lastWall
	sim.Stats.OnRow(b.row)
	return b
}

// Flush marks the run done, for /progress. Call once Run has returned.
// The final partial window is the row StatManager.Flush records, which
// RunContext does on every path.
func (b *Bus) Flush() {
	b.mu.Lock()
	b.flushed = true
	b.mu.Unlock()
}

// row is the bus's core.RowFunc: it records the row as a window, with
// the derived state read at the same barrier.
func (b *Bus) row(cycle int64, deltas, totals []float64, final bool) {
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
	copy(b.totals, totals)
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

// Cycle returns the cycle of the latest window (0 before the first):
// at most one statistics interval behind the run. Safe from any
// goroutine.
func (b *Bus) Cycle() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return max(b.prevCycle, 0)
}

// StatTotals returns every statistic's cumulative value as of the
// last window (counters monotonically non-decreasing, gauges by value)
// and whether each is a gauge. Safe from any goroutine — it reads only
// the copy taken with the window, which is what makes it usable from
// the status server mid-run.
func (b *Bus) StatTotals() (vals map[string]float64, gauges map[string]bool) {
	vals = make(map[string]float64, len(b.stats))
	gauges = make(map[string]bool, len(b.stats))
	b.mu.Lock()
	for i, st := range b.stats {
		vals[st.StatName()] = b.totals[i]
		gauges[st.StatName()] = b.gauge[i]
	}
	b.mu.Unlock()
	return vals, gauges
}

// WriteNDJSON writes every recorded window as one JSON object per
// line (newline-delimited JSON), oldest first. Map keys are emitted
// sorted, so the output for a given simulation is deterministic up to
// the wall-clock fields.
func (b *Bus) WriteNDJSON(w io.Writer) error {
	return writeNDJSON(w, b.Snapshot())
}

func writeNDJSON(w io.Writer, samples []*WindowSample) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Progress is the /progress payload: where the run is, how fast it is
// going, and when it should finish.
type Progress struct {
	Cycle      int64           `json:"cycle"` // the latest window's
	Frames     int64           `json:"frames"`
	GoalFrames int64           `json:"goalFrames,omitempty"`
	MaxCycles  int64           `json:"maxCycles,omitempty"`
	Windows    int64           `json:"windows"`
	CPS        float64         `json:"cps"`    // latest window rate
	AvgCPS     float64         `json:"avgCps"` // whole-run rate
	WallNs     int64           `json:"wallNs"` // host time since attach
	ETA        string          `json:"eta,omitempty"`
	EtaNs      int64           `json:"etaNs,omitempty"`
	Done       bool            `json:"done"`
	Watchdog   *WatchdogStatus `json:"watchdog,omitempty"`
}

// Progress summarizes the run state for the status server. Safe from
// any goroutine.
func (b *Bus) Progress() Progress {
	b.mu.Lock()
	cycle := max(b.prevCycle, 0)
	var last *WindowSample
	if n := len(b.ring); n > 0 {
		last = b.ring[n-1]
	}
	seq := b.seq
	start := b.startWall
	done := b.flushed
	b.mu.Unlock()

	p := Progress{
		Cycle:      cycle,
		GoalFrames: b.goalFr,
		MaxCycles:  b.goal,
		Windows:    seq,
		Done:       done,
	}
	p.WallNs = b.now().Sub(start).Nanoseconds()
	if p.WallNs > 0 && cycle > 0 {
		p.AvgCPS = float64(cycle) / (float64(p.WallNs) / 1e9)
	}
	if last != nil {
		p.CPS = last.CPS
		p.Frames = last.Frames
		p.Watchdog = last.Watchdog
	}
	if !done {
		p.EtaNs = b.eta(p)
		if p.EtaNs > 0 {
			p.ETA = time.Duration(p.EtaNs).Round(time.Second).String()
		}
	}
	return p
}

// eta estimates the remaining host time: frame-based when the total
// frame count is known and at least one frame finished, else
// cycle-budget based. 0 means unknown.
func (b *Bus) eta(p Progress) int64 {
	if b.goalFr > 0 && p.Frames > 0 {
		if p.Frames >= b.goalFr {
			return 0
		}
		perFrame := float64(p.WallNs) / float64(p.Frames)
		return int64(perFrame * float64(b.goalFr-p.Frames))
	}
	if b.goal > 0 && p.AvgCPS > 0 && p.Cycle < b.goal {
		return int64(float64(b.goal-p.Cycle) / p.AvgCPS * 1e9)
	}
	return 0
}
