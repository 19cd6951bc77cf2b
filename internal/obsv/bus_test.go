package obsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"attila/internal/core"
)

// Toy pipeline for the obsv tests: a producer sending one object per
// cycle over a latency-2 signal to a consumer holding a small queue.
// The producer reports busy cycles and a counter stat, the consumer a
// queue gauge and queue occupancy — enough surface to
// exercise every field of a WindowSample. Stats are sampled every 10
// cycles, so the windows end at cycles 10, 20, ...
type testProducer struct {
	core.BoxBase
	out   *core.Signal
	ids   *core.IDSource
	count int
	sent  int
	stat  *core.Counter
	busy  core.Counter
}

func (p *testProducer) Clock(cycle int64) {
	if p.sent < p.count {
		p.out.Write(cycle, &core.DynObject{ID: p.ids.Next(), Tag: "obj"})
		p.sent++
		p.stat.Inc()
		p.busy.Inc()
	}
}

func (p *testProducer) Introspect() core.BoxInfo { return core.BoxInfo{Busy: &p.busy} }

type testConsumer struct {
	core.BoxBase
	in    *core.Signal
	got   int
	queue int
	gauge *core.Gauge
}

func (c *testConsumer) Clock(cycle int64) {
	for range c.in.Read(cycle) {
		c.got++
		c.queue++
	}
	// Drain one object every other cycle so the queue stays occupied.
	if c.queue > 0 && cycle%2 == 0 {
		c.queue--
	}
	c.gauge.Set(float64(c.queue))
}

func (c *testConsumer) Introspect() core.BoxInfo {
	return core.BoxInfo{Queues: func() []core.QueueStat {
		return []core.QueueStat{{Name: "Consumer.queue", Occupied: c.queue, Capacity: 8}}
	}}
}

func buildTestSim(count int) (*core.Simulator, *testProducer, *testConsumer) {
	sim := core.NewSimulator(10)
	p := &testProducer{ids: &sim.IDs, count: count, stat: sim.Stats.Counter("Producer.sent")}
	p.Init("Producer")
	sim.Stats.ShadowCounter(&p.busy, "Producer.busyCycles")
	c := &testConsumer{gauge: sim.Stats.Gauge("Consumer.depth")}
	c.Init("Consumer")
	p.out = sim.Binder.Provide(p.BoxName(), "pipe", 1, 2, 0)
	sim.Binder.Bind(c.BoxName(), "pipe", &c.in)
	sim.Register(p)
	sim.Register(c)
	sim.SetDone(func() bool { return c.got == count })
	return sim, p, c
}

// fakeClock advances a deterministic amount on every call, making the
// wall-clock fields of the NDJSON output reproducible.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1000, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestBusWindowsAndFlush(t *testing.T) {
	sim, _, c := buildTestSim(25)
	sim.SetWatchdog(1000)
	// The consumer's count stands in for the frame counter: it is read
	// at each window's barrier.
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond), Frames: func() int64 { return int64(c.got) }})
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}

	samples := bus.Snapshot()
	if len(samples) != 3 {
		t.Fatalf("want 3 windows (2 full + final partial), got %d", len(samples))
	}
	w0, w1, fin := samples[0], samples[1], samples[2]
	// The windows are the stats rows: the first covers cycles 0-10, as
	// the CSV's first row does.
	if w0.Cycle != 10 || w0.Cycles != 11 || w1.Cycle != 20 || w1.Cycles != 10 {
		t.Fatalf("window boundaries wrong: %+v %+v", w0, w1)
	}
	if w0.Seq != 0 || w1.Seq != 1 || fin.Seq != 2 {
		t.Fatalf("sequence numbers wrong: %d %d %d", w0.Seq, w1.Seq, fin.Seq)
	}
	if !fin.Final || fin.Cycle != sim.Cycle()-1 {
		t.Fatalf("final window must cover the last executed cycle: %+v (sim cycle %d)", fin, sim.Cycle())
	}
	// 11 objects sent in the first window; a full producer window is
	// busy fraction 1.
	if w0.Stats["Producer.sent"] != 11 {
		t.Fatalf("counter delta: want 11, got %v", w0.Stats)
	}
	if w0.Busy["Producer"] != 1 {
		t.Fatalf("producer busy fraction: want 1, got %v", w0.Busy)
	}
	// At the cycle-10 barrier: 11 produced, 9 consumed (latency 2).
	if w0.Signals["pipe"] != 2 {
		t.Fatalf("in-flight objects: want 2, got %v", w0.Signals)
	}
	if w0.Frames != 9 || fin.Frames != 25 {
		t.Fatalf("frames read at the barrier: want 9 and 25, got %d and %d", w0.Frames, fin.Frames)
	}
	if _, ok := w0.Queues["Consumer.queue"]; !ok {
		t.Fatalf("stall-reporter occupancy missing: %v", w0.Queues)
	}
	// Gauges are carried by value in every window.
	if _, ok := fin.Stats["Consumer.depth"]; !ok {
		t.Fatalf("gauge missing from final window: %v", fin.Stats)
	}
	if w0.Watchdog == nil || w0.Watchdog.Fingerprint == 0 {
		t.Fatalf("watchdog fingerprint missing: %+v", w0.Watchdog)
	}
	// One fake-clock step per sample: 11 cycles / 1ms = 11k cycles/sec
	// for the first window.
	if w0.WallNs != int64(time.Millisecond) || w0.CPS != 11000 {
		t.Fatalf("wall-clock rate: want 1ms/11000cps, got %dns %gcps", w0.WallNs, w0.CPS)
	}
}

func TestBusFlushIdempotentAndCoversBoundary(t *testing.T) {
	// 15 objects, latency 2: the run ends mid-window; the stats flush
	// at the end of the run records that window once.
	sim, _, _ := buildTestSim(15)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	samples := bus.Snapshot()
	if len(samples) != 2 {
		t.Fatalf("want 2 windows, got %d", len(samples))
	}
	if !samples[1].Final || samples[1].Cycle != sim.Cycle()-1 {
		t.Fatalf("final window wrong: %+v", samples[1])
	}

	// A run whose last cycle is a boundary (n objects end at cycle n+1)
	// has its last window already: it is the boundary's row, and the
	// flush adds no partial one after it.
	for _, n := range []int{9, 19, 29} {
		sim, _, _ := buildTestSim(n)
		bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
		if err := sim.Run(100); err != nil {
			t.Fatal(err)
		}
		samples := bus.Snapshot()
		last := samples[len(samples)-1]
		if len(samples) != (n+1)/10 || last.Cycle != sim.Cycle()-1 || last.Cycle%10 != 0 || last.Final {
			t.Fatalf("n=%d: %d windows, last %+v (sim cycle %d)", n, len(samples), last, sim.Cycle())
		}
	}
}

func TestBusRingDepthEviction(t *testing.T) {
	sim, _, _ := buildTestSim(60)
	bus := NewBus(sim, BusOptions{Depth: 3, Now: fakeClock(time.Millisecond)})
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	samples := bus.Snapshot()
	if len(samples) != 3 {
		t.Fatalf("ring depth 3 not enforced: got %d windows", len(samples))
	}
	// The retained windows are the newest ones, in order.
	for i := 1; i < len(samples); i++ {
		if samples[i].Seq != samples[i-1].Seq+1 {
			t.Fatalf("evicted ring out of order: %d after %d", samples[i].Seq, samples[i-1].Seq)
		}
	}
	if !samples[len(samples)-1].Final {
		t.Fatal("newest window after eviction must be the final one")
	}
}

func TestBusNDJSONDeterministicAcrossRuns(t *testing.T) {
	run := func() []byte {
		sim, _, _ := buildTestSim(25)
		sim.SetWatchdog(500)
		bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
		if err := sim.Run(100); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bus.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("NDJSON not reproducible with a deterministic clock:\n%s\nvs\n%s", a, b)
	}
	// Every line is a standalone JSON object, one per window.
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 NDJSON lines (2 full windows + final partial), got %d", len(lines))
	}
	for _, line := range lines {
		var s WindowSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
	}
}

func TestProfilerAttributesBoxes(t *testing.T) {
	profile := func(prof *Profiler) {
		sim, _, _ := buildTestSim(25)
		prof.Attach(sim)
		if err := sim.Run(100); err != nil {
			t.Error(err)
		}
	}
	prof := NewProfiler()
	prof.SampleEvery = 1 // time every cycle in the test
	profile(prof)
	rows := prof.Report()
	if len(rows) != 2 {
		t.Fatalf("want 2 profiled boxes, got %+v", rows)
	}
	var share float64
	for _, r := range rows {
		if r.Samples == 0 || r.HostNs <= 0 || r.MeanNs <= 0 {
			t.Fatalf("empty attribution row: %+v", r)
		}
		share += r.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("shares must sum to 1, got %g", share)
	}
	if rows[0].HostNs < rows[1].HostNs {
		t.Fatalf("Report()[0] not the most expensive box: %+v", rows)
	}
	// One profiler clocked by two runs at once (a pool's) aggregates
	// both runs' samples by box name; the race detector watches it in
	// make check.
	shared := NewProfiler()
	shared.SampleEvery = 1
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			profile(shared)
		}()
	}
	wg.Wait()
	for _, r := range shared.Report() {
		for _, one := range rows {
			if one.Box == r.Box && r.Samples != 2*one.Samples {
				t.Errorf("%s: %d samples over two concurrent runs, want 2x%d", r.Box, r.Samples, one.Samples)
			}
		}
	}
	var buf bytes.Buffer
	if err := prof.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "box") || !strings.Contains(buf.String(), "Producer") {
		t.Fatalf("table output: %q", buf.String())
	}
}

// costBox is a minimal core.Box for feeding the profiler directly.
type costBox struct{ name string }

func (b costBox) BoxName() string { return b.name }
func (b costBox) Clock(int64)     {}

// Attribution is keyed by box name: a pseudo-box row (the barrier row
// the benchmark's box classes still name) stays a row of its own, and
// no box's cost includes it.
func TestProfilerBoxCostsExcludeBarrier(t *testing.T) {
	prof := NewProfiler()
	box := costBox{name: "Alpha"}
	prof.BoxClocked(box, 100)
	prof.BoxClocked(box, 300)
	prof.BoxClocked(costBox{name: core.BarrierBoxName}, 9999)
	found := false
	for _, r := range prof.Report() {
		switch r.Box {
		case core.BarrierBoxName:
			found = true
		case "Alpha":
			if r.MeanNs != 200 {
				t.Errorf("Alpha cost %g, want mean 200", r.MeanNs)
			}
		}
	}
	if !found {
		t.Error("barrier row missing from the profiler report")
	}
}

func TestProfilerOffByDefault(t *testing.T) {
	// A simulator without an attached profiler must run exactly as
	// before — this is the zero-overhead contract's functional half.
	sim, _, c := buildTestSim(25)
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.got != 25 {
		t.Fatalf("run without profiler broken: got %d", c.got)
	}
}

func TestBusOnDeadlockedRun(t *testing.T) {
	// The bus must keep its windows (and flush the partial one) when
	// the run dies; that is what -metrics writes after a failed run.
	sim, _, _ := buildTestSim(5)
	sim.SetDone(func() bool { return false }) // never done: traffic dies after delivery
	sim.SetWatchdog(20)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	err := sim.Run(10000)
	if !errors.Is(err, core.ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	samples := bus.Snapshot()
	if len(samples) < 2 || !samples[len(samples)-1].Final {
		t.Fatalf("windows missing after deadlock: %d", len(samples))
	}
	// The -blackbox file of the failed run: the crash report as JSON.
	path := filepath.Join(t.TempDir(), "crash.json")
	if sim.Crash() == nil || sim.Crash().WriteFile(path) != nil {
		t.Fatal("deadlocked run left no crash report")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep core.CrashReport
	if err := json.Unmarshal(data, &rep); err != nil || rep.Kind != "deadlock" || rep.Deadlock == nil {
		t.Fatalf("crash report JSON: %v %+v", err, rep)
	}
}
