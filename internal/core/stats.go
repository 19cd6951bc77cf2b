package core

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Stat is one named statistic collected during simulation. Stats are
// registered with a StatManager, which snapshots them at a sampling
// interval and dumps a CSV with one column per stat (the paper's
// ~300-statistic CSV output).
type Stat interface {
	// StatName returns the fully qualified name, conventionally
	// "Box.metric".
	StatName() string
	// Value returns the current cumulative value.
	Value() float64
}

// Counter is a monotonically increasing statistic (events, cycles
// busy, bytes transferred). Boxes embed their counters by value and
// register them with StatManager.ShadowCounter, so the hot path
// increments a plain struct field on the same cache lines as the rest
// of the box state; StatManager.Counter allocates a free-standing one.
// The zero value is unusable until registered.
//
// A counter is mutated by its owning box and read at the end of a
// cycle. Every Add in the tree passes an integer and totals stay well
// below 2^53, so the float64 sum is exact in any order.
//
// A counter accrues while its box is parked counting it
// (BoxBase.ParkCounting): Value adds rate for every cycle since, read
// off the simulator's cycle register, until the box's next Clock folds
// the sum into v. Inc and Add know nothing of it.
type Counter struct {
	name string
	v    float64

	rate  float64 // added per cycle from since on; 0 when not accruing
	since int64   // the first cycle the parked box does not count itself
	now   *int64  // the simulator's cycle register, valid while rate != 0
}

// StatName implements Stat.
func (c *Counter) StatName() string { return c.name }

// Value implements Stat.
func (c *Counter) Value() float64 {
	if c.rate != 0 {
		return c.v + c.accrued(*c.now)
	}
	return c.v
}

// accrued is what the skipped Clocks of cycles since..upTo-1 would have
// added. A run that fails in the middle of a cycle leaves the register
// one short of the since of a box that parked in it: no cycle skipped.
func (c *Counter) accrued(upTo int64) float64 {
	return c.rate * float64(max(upTo-c.since, 0))
}

// settle folds the accrual through cycle upTo-1 into v and ends it.
func (c *Counter) settle(upTo int64) {
	c.v += c.accrued(upTo)
	c.rate = 0
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n float64) { c.v += n }

// Progress is a Counter each of whose steps is forward progress of the
// machine: progress with no signal traffic (cache-hit filtering,
// instruction execution, quads retired in place). Only genuinely
// forward-moving counters qualify — busy and stall counters tick while
// deadlocked and would mask a hang. It also counts into the simulator's
// progress tally, so that the watchdog reads one word for all of them.
// Register with ShadowProgress: registering is what declares it to the
// watchdog.
type Progress struct {
	Counter
	tally *uint64 // the simulator's (Simulator.wire); own before any Run
	own   uint64
}

// Inc adds 1.
func (p *Progress) Inc() {
	p.v++
	*p.tally++
}

// Add adds n.
func (p *Progress) Add(n float64) {
	p.v += n
	*p.tally += uint64(n)
}

// Gauge is a statistic that records the latest and maximum observed
// value (queue occupancies, threads in flight).
type Gauge struct {
	name string
	v    float64
	max  float64
}

// StatName implements Stat.
func (g *Gauge) StatName() string { return g.name }

// Value implements Stat.
func (g *Gauge) Value() float64 { return g.v }

// Max returns the largest value ever set.
func (g *Gauge) Max() float64 { return g.max }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// StatManager registers statistics and produces the CSV output. A
// sample records, for each counter, the delta of its value over the
// sampling interval (so utilization-style plots fall directly out of
// counters); gauges are sampled by value, since a delta of a sampled
// quantity is meaningless. Cumulative values remain available at end
// of run.
//
// Stats are mutated by their owning box and sampled at the end of the
// cycle. A row is the run's one interval sample: whatever else reads
// the statistics in windows (the metrics bus) registers with OnRow.
type StatManager struct {
	stats    []Stat
	progress []*Progress // the ShadowProgress registrations, in order
	byName   map[string]Stat
	interval int64
	rows     []sampleRow
	last     []float64
	readers  []RowFunc

	lastSample int64
	hasSample  bool

	// A memo sparing Tick its divisions: the cycle that follows tickedTo
	// is no boundary while it comes before nextBoundary. Not state: zero
	// (fresh, restored) sends the next call the long way.
	tickedTo, nextBoundary int64
}

type sampleRow struct {
	cycle  int64
	deltas []float64
}

// RowFunc reads one row as the manager records it: the row's cycle
// stamp, the per-stat deltas (gauges by value) in registration order
// (Registered), and whether it is Flush's partial row. deltas is the
// manager's row itself and never changes.
type RowFunc func(cycle int64, deltas []float64, final bool)

// NewStatManager creates a manager sampling every interval cycles.
// Pass interval 0 to disable interval sampling (cumulative values are
// still available).
func NewStatManager(interval int64) *StatManager {
	return &StatManager{byName: make(map[string]Stat), interval: interval}
}

// Counter creates and registers a Counter with the given name. The
// name must be unique.
func (m *StatManager) Counter(name string) *Counter {
	c := &Counter{name: name}
	m.register(c)
	return c
}

// ShadowCounter registers c, a field of the owning box, under the
// given name (its address must stay stable for the life of the
// manager — never a reallocating slice element).
func (m *StatManager) ShadowCounter(c *Counter, name string) {
	*c = Counter{name: name}
	m.register(c)
}

// ShadowProgress is ShadowCounter for a Progress field, and declares it
// forward progress to the watchdog.
func (m *StatManager) ShadowProgress(p *Progress, name string) {
	p.tally = &p.own
	m.ShadowCounter(&p.Counter, name)
	m.progress = append(m.progress, p)
}

// Gauge creates and registers a Gauge with the given name.
func (m *StatManager) Gauge(name string) *Gauge {
	g := &Gauge{name: name}
	m.register(g)
	return g
}

func (m *StatManager) register(s Stat) {
	if _, dup := m.byName[s.StatName()]; dup {
		panic(fmt.Sprintf("stat %q registered twice", s.StatName()))
	}
	m.byName[s.StatName()] = s
	m.stats = append(m.stats, s)
	m.last = append(m.last, 0)
}

// Snapshot returns the cumulative value of every stat by name, for
// embedding in crash reports.
func (m *StatManager) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(m.stats))
	for _, s := range m.stats {
		out[s.StatName()] = s.Value()
	}
	return out
}

// Lookup returns the stat registered under name, or nil.
func (m *StatManager) Lookup(name string) Stat { return m.byName[name] }

// Registered returns the stats in registration order, the order of a
// row's columns. The slice is shared: do not modify it.
func (m *StatManager) Registered() []Stat { return m.stats }

// OnRow registers fn to be called for every row recorded from now on,
// after the row is stored, in registration order.
func (m *StatManager) OnRow(fn RowFunc) { m.readers = append(m.readers, fn) }

// Names returns all registered stat names, sorted.
func (m *StatManager) Names() []string {
	out := make([]string, 0, len(m.stats))
	for _, s := range m.stats {
		out = append(out, s.StatName())
	}
	sort.Strings(out)
	return out
}

// Tick is called once per cycle and records a sample row whenever the
// sampling interval elapses.
func (m *StatManager) Tick(cycle int64) {
	if m.interval <= 0 {
		return
	}
	if cycle == m.tickedTo+1 && cycle < m.nextBoundary {
		m.tickedTo = cycle
		return
	}
	m.tickedTo, m.nextBoundary = cycle, (cycle/m.interval+1)*m.interval
	// Cycle 0 is no boundary: no interval has elapsed yet.
	if cycle > 0 && cycle%m.interval == 0 {
		m.sample(cycle, false)
	}
}

// Flush records a final partial sample covering the cycles since the
// last boundary. cycle is the simulator's cycle *count* — one past
// the last executed cycle — so the row is stamped cycle-1, the cycle
// the stats (gauges in particular) were actually last mutated at; a
// run whose length is not a multiple of the interval used to stamp
// its partial row one cycle past the end of the run. When the run
// ended on a sampling boundary, the boundary sample already covers
// every completed cycle and Flush skips the redundant row.
func (m *StatManager) Flush(cycle int64) {
	if m.interval <= 0 || cycle <= 0 {
		return
	}
	last := cycle - 1
	if m.hasSample && last <= m.lastSample {
		return
	}
	m.sample(last, true)
}

func (m *StatManager) sample(cycle int64, final bool) {
	row := sampleRow{cycle: cycle, deltas: make([]float64, len(m.stats))}
	for i, s := range m.stats {
		v := s.Value()
		if _, byValue := s.(*Gauge); byValue {
			row.deltas[i] = v
		} else {
			row.deltas[i] = v - m.last[i]
		}
		m.last[i] = v
	}
	m.rows = append(m.rows, row)
	m.lastSample = cycle
	m.hasSample = true
	for _, fn := range m.readers {
		fn(cycle, row.deltas, final)
	}
}

// Samples returns the recorded samples for one stat — per-interval
// deltas for counters, instantaneous values for gauges — with the
// cycle at which each sample was taken.
func (m *StatManager) Samples(name string) (cycles []int64, deltas []float64) {
	idx := -1
	for i, s := range m.stats {
		if s.StatName() == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, nil
	}
	for _, r := range m.rows {
		cycles = append(cycles, r.cycle)
		deltas = append(deltas, r.deltas[idx])
	}
	return cycles, deltas
}

// WriteCSV dumps all interval samples: header row of stat names, then
// one row per sample (counter deltas, gauge values). The text is
// appended into one buffer, reused from the last CSV written, and
// written once.
func (m *StatManager) WriteCSV(w io.Writer) error {
	bp := csvBufs.Get().(*[]byte)
	defer csvBufs.Put(bp)
	b := append((*bp)[:0], "cycle"...)
	for _, s := range m.stats {
		b = append(b, ',')
		b = append(b, s.StatName()...)
	}
	b = append(b, '\n')
	for _, r := range m.rows {
		b = strconv.AppendInt(b, r.cycle, 10)
		for _, d := range r.deltas {
			b = append(b, ',')
			b = strconv.AppendFloat(b, d, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	*bp = b
	_, err := w.Write(b)
	return err
}

// csvBufs holds WriteCSV's buffers: jobd workers write side by side.
var csvBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteSummary dumps the cumulative value of every stat, one per
// line, sorted by name.
func (m *StatManager) WriteSummary(w io.Writer) error {
	names := m.Names()
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s,%g\n", n, m.byName[n].Value())
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
