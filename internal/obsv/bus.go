// Package obsv is the live observability layer of the simulator: a
// windowed metrics bus sampled at the cycle barrier, a per-box
// host-time profiler, a Perfetto/Chrome trace-event exporter, the
// attilasim status server, and the run manifest.
//
// Everything here is stdlib-only and reads simulation state only at
// the cycle barrier (core.Simulator.OnEndCycle) or through atomics,
// so attaching any of it never changes simulation results — the
// paper's end-of-run CSV and the signal trace stay bit-identical.
package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"attila/internal/core"
	"attila/internal/obsv/trace"
)

// BusOptions configures the windowed metrics bus.
type BusOptions struct {
	// Window is the sampling window in cycles. <= 0 selects 10000 (the
	// paper's statistics interval).
	Window int64
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
	// windowed p50/p90/p99 summaries. The collector's EndCycle hook
	// must be registered before the bus is built (fold-before-sample).
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

// WindowSample is one window of the metrics bus: per-stat deltas (by
// value for gauges), derived per-box busy fractions and queue
// occupancy, per-signal in-flight objects, and the host-time rate.
// All fields except WallNs and CPS are functions of simulation state
// only and therefore identical from run to run.
type WindowSample struct {
	Seq      int64                     `json:"seq"`
	Cycle    int64                     `json:"cycle"`  // last executed cycle of the window
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

// busyEntry pairs a box's busy counter (BoxInfo.Busy) with its
// previous value for per-window deltas.
type busyEntry struct {
	name string
	busy *core.Counter
	prev float64
}

// Bus samples every registered statistic plus derived rates into a
// ring of time-series windows. It attaches to a built simulator with
// NewBus and from then on runs at every cycle barrier; readers (the
// status server, the NDJSON/Perfetto exporters) take snapshots under
// a mutex the sampler holds only at window boundaries.
type Bus struct {
	sim    *core.Simulator
	window int64
	depth  int
	now    func() time.Time
	frames func() int64
	goal   int64
	goalFr int64

	// Captured at attach time; simulation wiring is immutable during a
	// run.
	stats []core.Stat
	gauge []bool
	prev  []float64
	busy  []busyEntry
	stall []func() []core.QueueStat // every BoxInfo.Queues, in registration order
	sigs  []*core.Signal
	spans *trace.Collector
	hists map[string]trace.Histogram // per-client baselines at the last window

	curCycle atomic.Int64 // latest cycle seen by the hook, readable anywhere
	lastHook int64        // previous hooked cycle, for boundary crossing (-1 at start)

	mu        sync.Mutex
	ring      []*WindowSample
	seq       int64
	prevCycle int64 // last sampled cycle (-1 before the first window)
	lastWall  time.Time
	startWall time.Time
	flushed   bool
}

// NewBus attaches a metrics bus to the simulator. Call after the
// pipeline is fully built (all boxes, signals and stats registered)
// and before Run.
func NewBus(sim *core.Simulator, opts BusOptions) *Bus {
	if opts.Window <= 0 {
		opts.Window = 10000
	}
	if opts.Depth <= 0 {
		opts.Depth = 512
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	b := &Bus{
		sim:    sim,
		window: opts.Window,
		depth:  opts.Depth,
		now:    now,
		frames: opts.Frames,
		goal:   opts.Goal,
		goalFr: opts.GoalFrames,
		sigs:   sim.Binder.Signals(),
		spans:  opts.Spans,
	}
	if b.spans != nil {
		b.hists = make(map[string]trace.Histogram)
	}
	for _, name := range sim.Stats.Names() {
		st := sim.Stats.Lookup(name)
		b.stats = append(b.stats, st)
		_, isGauge := st.(*core.Gauge)
		b.gauge = append(b.gauge, isGauge)
		b.prev = append(b.prev, 0)
	}
	for _, box := range sim.Boxes() {
		info := core.InfoOf(box)
		if info.Busy != nil {
			b.busy = append(b.busy, busyEntry{name: box.BoxName(), busy: info.Busy})
		}
		if info.Queues != nil {
			b.stall = append(b.stall, info.Queues)
		}
	}
	b.prevCycle = -1
	b.lastHook = -1
	b.lastWall = now()
	b.startWall = b.lastWall
	sim.OnEndCycle(b.endCycle)
	return b
}

// Window returns the configured window length in cycles.
func (b *Bus) Window() int64 { return b.window }

// endCycle is the bus's barrier hook: it publishes the cycle counter
// and takes a full sample whenever a window boundary has been crossed
// since the previous hook. The sample cycles are a pure function of
// simulation state.
func (b *Bus) endCycle(cycle int64) {
	b.curCycle.Store(cycle)
	prev := b.lastHook
	if prev < 0 {
		// First hook of the run: treat it as an ordinary per-cycle
		// step. A bus attached to a checkpoint-restored simulator sees
		// its first hook mid-run and must not misread the gap since
		// cycle 0 as a boundary crossing.
		prev = cycle - 1
	}
	b.lastHook = cycle
	if (cycle+1)/b.window == (prev+1)/b.window {
		return
	}
	b.sample(cycle, false)
}

// Flush records the final partial window after the run has ended
// (successfully or not). Call once Run has returned; it is a no-op when the last executed cycle is
// already covered.
func (b *Bus) Flush() {
	last := b.sim.Cycle() - 1
	b.mu.Lock()
	covered := last <= b.prevCycle
	b.mu.Unlock()
	if last < 0 || covered {
		return
	}
	b.sample(last, true)
	b.mu.Lock()
	b.flushed = true
	b.mu.Unlock()
}

func (b *Bus) sample(cycle int64, final bool) {
	now := b.now()
	s := &WindowSample{
		Cycle:  cycle,
		Final:  final,
		Stats:  make(map[string]float64),
		Busy:   make(map[string]float64),
		Queues: make(map[string]float64),
	}
	for i, st := range b.stats {
		v := st.Value()
		if b.gauge[i] {
			s.Stats[st.StatName()] = v
		} else if d := v - b.prev[i]; d != 0 {
			s.Stats[st.StatName()] = d
		}
		b.prev[i] = v
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
	for i := range b.busy {
		e := &b.busy[i]
		cur := e.busy.Value()
		if d := cur - e.prev; d != 0 && s.Cycles > 0 {
			s.Busy[e.name] = d / float64(s.Cycles)
		}
		e.prev = cur
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

// Cycle returns the most recent simulated cycle observed by the bus
// (updated every cycle, safe from any goroutine).
func (b *Bus) Cycle() int64 { return b.curCycle.Load() }

// StatTotals returns every statistic's cumulative value as of the
// last sampled window (counters monotonically non-decreasing, gauges
// by value) and whether each is a gauge. Safe from any goroutine —
// it reads only the barrier-published baselines, which is what makes
// it usable from the status server mid-run.
func (b *Bus) StatTotals() (vals map[string]float64, gauges map[string]bool) {
	vals = make(map[string]float64, len(b.stats))
	gauges = make(map[string]bool, len(b.stats))
	b.mu.Lock()
	for i, st := range b.stats {
		vals[st.StatName()] = b.prev[i]
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
	Cycle      int64           `json:"cycle"`
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
	cycle := b.curCycle.Load()
	b.mu.Lock()
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
