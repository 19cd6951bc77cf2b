package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// producer/consumer boxes used by the simulator tests: producer sends
// count objects, one per cycle; consumer counts arrivals.
type producer struct {
	BoxBase
	out   *Signal
	ids   *IDSource
	count int
	sent  int
}

func (p *producer) Clock(cycle int64) {
	if p.sent < p.count {
		p.out.Write(cycle, newObj(p.ids, p.sent))
		p.sent++
	}
}

type consumer struct {
	BoxBase
	in       *Signal
	received []int
}

func (c *consumer) Clock(cycle int64) {
	for _, o := range c.in.Read(cycle) {
		c.received = append(c.received, o.(*testObj).val)
	}
}

func buildPipe(sim *Simulator, count int) (*producer, *consumer) {
	p := &producer{ids: &sim.IDs, count: count}
	p.Init("Producer")
	c := &consumer{}
	c.Init("Consumer")
	p.out = sim.Binder.Provide(p.BoxName(), "pipe", 1, 2, 0)
	sim.Binder.Bind(c.BoxName(), "pipe", &c.in)
	// Register consumer first to prove clocking order is irrelevant
	// with latency >= 1.
	sim.Register(c)
	sim.Register(p)
	return p, c
}

func TestSimulatorRunsToCompletion(t *testing.T) {
	sim := NewSimulator(0)
	_, c := buildPipe(sim, 5)
	sim.SetDone(func() bool { return len(c.received) == 5 })
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	for i, v := range c.received {
		if v != i {
			t.Fatalf("out of order delivery: %v", c.received)
		}
	}
	// 5 objects at 1/cycle with latency 2: last written at cycle 4,
	// read at cycle 6, done checked after cycle 6 -> Cycle()==7.
	if sim.Cycle() != 7 {
		t.Fatalf("expected 7 cycles, got %d", sim.Cycle())
	}
}

func TestSimulatorCycleLimit(t *testing.T) {
	sim := NewSimulator(0)
	buildPipe(sim, 5)
	sim.SetDone(func() bool { return false })
	err := sim.Run(50)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("want ErrCycleLimit, got %v", err)
	}
}

func TestSimulatorValidatesBinding(t *testing.T) {
	sim := NewSimulator(0)
	p := &producer{ids: &sim.IDs, count: 1}
	p.Init("Producer")
	p.out = sim.Binder.Provide(p.BoxName(), "dangling", 1, 1, 0)
	sim.Register(p)
	sim.SetDone(func() bool { return true })
	if err := sim.Run(10); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("want binder error naming the signal, got %v", err)
	}
}

func TestSimulatorConvertsSimErrorPanics(t *testing.T) {
	sim := NewSimulator(0)
	p, _ := buildPipe(sim, 10)
	// Sabotage: make the producer write twice per cycle over a bw-1
	// signal by calling Clock manually inside a box.
	bad := &badBox{sig: p.out, ids: &sim.IDs}
	bad.Init("Bad")
	sim.Register(bad)
	sim.SetDone(func() bool { return false })
	err := sim.Run(10)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("want *SimError, got %v", err)
	}
}

type badBox struct {
	BoxBase
	sig *Signal
	ids *IDSource
}

func (b *badBox) Clock(cycle int64) {
	b.sig.Write(cycle, newObj(b.ids, 0)) // second write this cycle: bandwidth violation
}

func TestBinderDoubleProvidePanics(t *testing.T) {
	b := NewBinder()
	b.Provide("A", "x", 1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Provide did not panic")
		}
	}()
	b.Provide("B", "x", 1, 1, 0)
}

func TestBinderBindBeforeProvide(t *testing.T) {
	b := NewBinder()
	var in *Signal
	b.Bind("C", "late", &in)
	if in != nil {
		t.Fatal("bind resolved before provide")
	}
	s := b.Provide("P", "late", 1, 1, 0)
	if in != s {
		t.Fatal("pending bind not resolved by Provide")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinderDoubleBindPanics(t *testing.T) {
	b := NewBinder()
	var s1, s2 *Signal
	b.Bind("C1", "x", &s1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Bind did not panic")
		}
	}()
	b.Bind("C2", "x", &s2)
}

func TestStatManagerSampling(t *testing.T) {
	m := NewStatManager(10)
	c := m.Counter("Box.events")
	g := m.Gauge("Box.queue")
	for cyc := int64(0); cyc < 35; cyc++ {
		if cyc < 20 {
			c.Inc()
		}
		g.Set(float64(cyc % 7))
		m.Tick(cyc)
	}
	m.Flush(35)
	cycles, deltas := m.Samples("Box.events")
	if len(cycles) != 4 { // cycles 10, 20, 30 and the flush row at 34
		t.Fatalf("want 4 samples, got %d (%v)", len(cycles), cycles)
	}
	// Ticks at cycle 10 and 20 happen after the increments of those
	// cycles: 11 increments by the cycle-10 tick, 9 more by cycle 20.
	want := []float64{11, 9, 0, 0}
	for i, d := range deltas {
		if d != want[i] {
			t.Fatalf("sample deltas: want %v, got %v", want, deltas)
		}
	}
	if c.Value() != 20 {
		t.Fatalf("counter value: want 20, got %g", c.Value())
	}
	if g.Max() != 6 {
		t.Fatalf("gauge max: want 6, got %g", g.Max())
	}
}

func TestStatManagerCSV(t *testing.T) {
	m := NewStatManager(5)
	a := m.Counter("A.x")
	m.Counter("B.y")
	for cyc := int64(0); cyc < 12; cyc++ {
		a.Add(2)
		m.Tick(cyc)
	}
	m.Flush(12)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,A.x,B.y" {
		t.Fatalf("header: %q", lines[0])
	}
	if len(lines) != 4 { // header + samples at 5, 10, 12
		t.Fatalf("want 4 lines, got %d: %v", len(lines), lines)
	}
	var sum bytes.Buffer
	if err := m.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "A.x,24") {
		t.Fatalf("summary missing cumulative value: %q", sum.String())
	}
}

// WriteCSV appends each value into its buffer where it used to format
// it into a string of its own: the bytes must be what FormatFloat gave,
// for the values whose text is easiest to get wrong.
func TestWriteCSVMatchesFormatFloat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, -3, 1 << 53, 12345678901, 0.1, 1e-300, 1e300, -2.5e-7, math.MaxFloat64, math.SmallestNonzeroFloat64}
	m := NewStatManager(1)
	gauges := make([]*Gauge, len(vals))
	for i := range vals {
		gauges[i] = m.Gauge(fmt.Sprintf("G.v%d", i))
	}
	for cyc := int64(1); cyc <= 3; cyc++ {
		for i, g := range gauges {
			g.Set(vals[(i+int(cyc))%len(vals)])
		}
		m.Tick(cyc)
	}
	var want strings.Builder
	want.WriteString("cycle")
	for _, s := range m.stats {
		want.WriteString("," + s.StatName())
	}
	want.WriteString("\n")
	for _, r := range m.rows {
		want.WriteString(strconv.FormatInt(r.cycle, 10))
		for _, d := range r.deltas {
			want.WriteString("," + strconv.FormatFloat(d, 'g', -1, 64))
		}
		want.WriteString("\n")
	}
	var got bytes.Buffer
	if err := m.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if len(m.rows) != 3 || got.String() != want.String() {
		t.Fatalf("%d rows; CSV\n%s\nwant\n%s", len(m.rows), got.String(), want.String())
	}
}

// WriteCSV's allocations do not grow with the table: a value is appended,
// not formatted into a string, and the buffer is the last CSV's.
func TestWriteCSVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	for _, size := range [][2]int{{4, 3}, {120, 300}} { // stats, rows
		m := NewStatManager(1)
		for i := 0; i < size[0]; i++ {
			m.Counter(fmt.Sprintf("Box%d.count", i)).Add(float64(i) * 1.5)
		}
		for cyc := int64(1); cyc <= int64(size[1]); cyc++ {
			m.Tick(cyc)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := m.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%d stats x %d rows: %.0f allocations a WriteCSV, want at most 1", size[0], size[1], allocs)
		}
	}
}

func TestStatManagerDuplicateNamePanics(t *testing.T) {
	m := NewStatManager(0)
	m.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate stat name did not panic")
		}
	}()
	m.Counter("dup")
}

func TestSigTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSigTraceWriter(&buf)
	w.Trace(3, "Setup.out", &DynObject{ID: 7, Parent: 2, Color: 5, Tag: "tri"})
	w.Trace(4, "FGen.tiles", &DynObject{ID: 8, Parent: 7, Tag: "tile 0,8"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSigTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	if recs[0].Signal != "Setup.out" || recs[0].ID != 7 || recs[0].Parent != 2 || recs[0].Color != 5 {
		t.Fatalf("record 0 mismatch: %+v", recs[0])
	}
	if recs[1].Tag != "tile 0,8" || recs[1].Cycle != 4 {
		t.Fatalf("record 1 mismatch: %+v", recs[1])
	}
}

// A run ending exactly on a sampling boundary already has its final
// interval sampled by Tick; the Flush one cycle later (cycle counter
// post-incremented) must not append a near-duplicate row.
func TestStatManagerFlushOnBoundary(t *testing.T) {
	m := NewStatManager(10)
	c := m.Counter("Box.events")
	for cyc := int64(0); cyc <= 20; cyc++ {
		c.Inc()
		m.Tick(cyc)
	}
	// Simulator.Run flushes at Cycle(), one past the last clocked
	// cycle 20 whose Tick just sampled.
	m.Flush(21)
	cycles, deltas := m.Samples("Box.events")
	if len(cycles) != 2 || cycles[0] != 10 || cycles[1] != 20 {
		t.Fatalf("want samples at cycles [10 20], got %v", cycles)
	}
	if deltas[0] != 11 || deltas[1] != 10 {
		t.Fatalf("want deltas [11 10], got %v", deltas)
	}
	// A later flush with real uncovered cycles still records, stamped
	// at the last executed cycle (24), not the cycle count (25).
	c.Add(5)
	m.Flush(25)
	if cycles, _ := m.Samples("Box.events"); len(cycles) != 3 || cycles[2] != 24 {
		t.Fatalf("flush past the boundary lost data or mis-stamped the row: %v", cycles)
	}
}

// The final partial window of a run whose cycle count is not a
// multiple of the sampling interval must be stamped with the cycle
// the values were sampled at (count-1), not the count itself — a
// gauge set during the last executed cycle would otherwise appear in
// a CSV row labelled one cycle past the end of the run.
func TestStatManagerFlushPartialWindowCycle(t *testing.T) {
	m := NewStatManager(10)
	g := m.Gauge("Box.queue")
	for cyc := int64(0); cyc < 17; cyc++ { // cycles 0..16, count 17
		g.Set(float64(cyc))
		m.Tick(cyc)
	}
	m.Flush(17)
	cycles, vals := m.Samples("Box.queue")
	if len(cycles) != 2 || cycles[0] != 10 || cycles[1] != 16 {
		t.Fatalf("want samples at cycles [10 16], got %v", cycles)
	}
	if vals[1] != 16 {
		t.Fatalf("partial-window gauge: want value 16 at its sampling cycle, got %g", vals[1])
	}
	// A run that never executed a cycle has nothing to flush.
	m2 := NewStatManager(10)
	m2.Counter("Box.events")
	m2.Flush(0)
	if c, _ := m2.Samples("Box.events"); len(c) != 0 {
		t.Fatalf("flush of an empty run recorded %v", c)
	}
}

// Gauges sample by value: a delta of an instantaneous quantity is
// meaningless (a steady queue depth of 40 would show as 0).
func TestStatManagerGaugeByValue(t *testing.T) {
	m := NewStatManager(10)
	g := m.Gauge("Box.queue")
	for cyc := int64(0); cyc < 25; cyc++ {
		g.Set(40)
		m.Tick(cyc)
	}
	m.Flush(25)
	_, vals := m.Samples("Box.queue")
	if len(vals) != 3 {
		t.Fatalf("want 3 samples, got %v", vals)
	}
	for i, v := range vals {
		if v != 40 {
			t.Fatalf("sample %d: want the gauge value 40, got %g (delta sampling?)", i, v)
		}
	}
}

func TestBinderTracerSeesTraffic(t *testing.T) {
	sim := NewSimulator(0)
	_, c := buildPipe(sim, 3)
	var buf bytes.Buffer
	tr := NewSigTraceWriter(&buf)
	sim.Binder.SetTracer(tr)
	sim.SetDone(func() bool { return len(c.received) == 3 })
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	recs, err := ReadSigTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("want 3 trace records, got %d", len(recs))
	}
}
