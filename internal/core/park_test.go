package core

import (
	"fmt"
	"reflect"
	"testing"
)

// The toy machine of the park/wake tests: a source sends numbered
// objects in bursts, with a per-object latency, as long as it holds
// credit, and parks when it has none; a sink reads its wire on every
// clock it gets, holds each object a few cycles before returning its
// credit through a Publication, and parks whenever it holds nothing.
// Every object carries the cycle it must be read on, so a wake that
// comes late shows as a wrong (or missing) observation.

type parkObj struct {
	DynObject
	val    int
	arrive int64
}

type seen struct {
	val   int
	cycle int64
}

type parkSource struct {
	BoxBase
	out     *Signal
	credits int
	total   int
	burst   int   // objects per sending cycle (<= bandwidth)
	gap     int64 // quiet cycles after every third burst
	maxLat  int

	sent     int
	bursts   int
	nextSend int64
	clocks   int
	sendLog  []int64 // cycle each object was written on
}

func (p *parkSource) Clock(cycle int64) {
	p.clocks++
	if p.sent == p.total {
		p.Park() // nothing left to do, ever
		return
	}
	if p.credits == 0 {
		p.Park() // until the sink's release folds
		return
	}
	if cycle < p.nextSend {
		return // a timed wait: nobody would wake us, stay awake
	}
	for n := 0; n < p.burst && p.credits > 0 && p.sent < p.total; n++ {
		lat := 1 + (p.sent*7)%p.maxLat
		o := &parkObj{val: p.sent, arrive: cycle + int64(lat)}
		p.out.WriteLat(cycle, lat, o)
		p.sendLog = append(p.sendLog, cycle)
		p.credits--
		p.sent++
	}
	p.bursts++
	p.nextSend = cycle + 1
	if p.bursts%3 == 0 {
		p.nextSend = cycle + 1 + p.gap
	}
}

type parkSink struct {
	BoxBase
	in       *Signal
	hold     int64
	pub      *Publication
	released int // written here, folded into the source at the end of the cycle

	held   []int64 // release cycles of the objects still held
	got    []seen
	clocks int
}

func (c *parkSink) Clock(cycle int64) {
	c.clocks++
	for _, o := range c.in.Read(cycle) {
		obj := o.(*parkObj)
		c.got = append(c.got, seen{obj.val, cycle})
		if obj.arrive != cycle {
			panic(fmt.Sprintf("object %d read at %d, arrives %d", obj.val, cycle, obj.arrive))
		}
		c.held = append(c.held, cycle+c.hold)
	}
	for len(c.held) > 0 && c.held[0] <= cycle {
		c.held = c.held[1:]
		c.released++
		c.pub.Mark()
	}
	if len(c.held) == 0 {
		c.Park() // until the wire carries something
	}
}

type parkPair struct {
	src  *parkSource
	sink *parkSink
}

func buildParkPair(sim *Simulator, i, total, bw, maxLat, credits int, gap, hold int64) parkPair {
	src := &parkSource{credits: credits, total: total, burst: bw, gap: gap, maxLat: maxLat}
	src.Init(fmt.Sprintf("Source%d", i))
	sink := &parkSink{hold: hold}
	sink.Init(fmt.Sprintf("Sink%d", i))
	wire := fmt.Sprintf("wire%d", i)
	src.out = sim.Binder.Provide(src.BoxName(), wire, bw, 1, maxLat)
	sim.Binder.Bind(sink.BoxName(), wire, &sink.in)
	sink.pub = sim.Publish(src.BoxName(), func(int64) {
		src.credits += sink.released
		sink.released = 0
	})
	sim.Register(sink) // sink first: order must not matter
	sim.Register(src)
	return parkPair{src, sink}
}

// passGate lets every clock through; installing it keeps every box
// awake, which makes it the every-box-every-cycle model.
type passGate struct{}

func (passGate) BeforeClock(int64, Box) bool { return true }

type parkRun struct {
	cycles int64
	got    [][]seen
	sends  [][]int64
	clocks int // box clocks, all boxes
}

func runParkMachine(t *testing.T, allAwake bool) parkRun {
	t.Helper()
	sim := NewSimulator(0)
	const total = 120
	pairs := []parkPair{
		buildParkPair(sim, 0, total, 1, 1, 4, 0, 3),    // latency 1, tight credit
		buildParkPair(sim, 1, total, 3, 6, 5, 40, 2),   // bandwidth 3, WriteLat up to 6, long gaps
		buildParkPair(sim, 2, total, 2, 9, 2, 200, 11), // credit-blocked most of the time
		buildParkPair(sim, 3, total, 4, 4, 64, 500, 1), // never blocked, very long gaps
	}
	if allAwake {
		sim.SetClockGate(passGate{})
	}
	sim.SetDone(func() bool {
		for _, p := range pairs {
			if len(p.sink.got) < total || len(p.sink.held) > 0 {
				return false
			}
		}
		return true
	})
	if err := sim.Run(1_000_000); err != nil {
		t.Fatalf("allAwake=%v: %v", allAwake, err)
	}
	r := parkRun{cycles: sim.Cycle()}
	for _, p := range pairs {
		if len(p.sink.got) != total {
			t.Fatalf("sink saw %d of %d objects", len(p.sink.got), total)
		}
		r.got = append(r.got, p.sink.got)
		r.sends = append(r.sends, p.src.sendLog)
		r.clocks += p.src.clocks + p.sink.clocks
	}
	return r
}

// Parking must change nothing the machine computes: every object is
// read on its arrival cycle (the sink panics otherwise), every send
// happens on the cycle the every-box-every-cycle loop makes it, a
// credit-blocked source resumes on the cycle after the release — while
// most box clocks are skipped.
func TestParkWakeMatchesEveryCycleLoop(t *testing.T) {
	model := runParkMachine(t, true)
	got := runParkMachine(t, false)
	if got.cycles != model.cycles {
		t.Errorf("%d cycles, model %d", got.cycles, model.cycles)
	}
	if !reflect.DeepEqual(got.got, model.got) {
		t.Error("observations differ from the every-cycle model")
	}
	if !reflect.DeepEqual(got.sends, model.sends) {
		t.Error("send cycles differ from the every-cycle model")
	}
	if got.clocks*2 > model.clocks {
		t.Errorf("parking skipped too little: %d box clocks, model %d", got.clocks, model.clocks)
	}
}

// A box that never calls Park is clocked every cycle exactly as before
// (the benchmark's idle kernel counts on it).
func TestBoxThatNeverParksIsClockedEveryCycle(t *testing.T) {
	sim := NewSimulator(0)
	consumers := buildFanout(sim, 3, 10)
	tick := &ticker{}
	tick.Init("Ticker")
	sim.Register(tick)
	sim.SetDone(allReceived(consumers, 10))
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if int64(tick.n) != sim.Cycle() {
		t.Errorf("%d clocks over %d cycles", tick.n, sim.Cycle())
	}
}

// A write wakes a parked box, and a box cannot park while an object is
// in flight to it, whichever comes first.
func TestParkAndWriteInEitherOrder(t *testing.T) {
	sink := &parkSink{}
	sink.Init("Sink")
	sim := NewSimulator(0)
	sim.Register(sink)
	sim.wire()
	sig := NewSignal("wire", 1, 3, 0)
	sig.reader = &sink.BoxBase
	sink.inputs = []*Signal{sig}
	awake := func() bool { return sim.awake[0]&1 != 0 }

	sim.park(0)
	if awake() {
		t.Fatal("empty wire: box did not park")
	}
	sig.Write(10, &parkObj{}) // park, then write: the write wakes
	if !awake() {
		t.Fatal("write to a parked box's wire did not wake it")
	}
	sim.park(0) // write, then park: refused while the object is in flight
	if !awake() {
		t.Fatal("box parked with an object in flight")
	}
	sig.Read(13)
	sim.park(0)
	if awake() {
		t.Fatal("drained wire: box did not park")
	}
	sink.Wake()
	sink.Wake() // idempotent
	if !awake() || sink.parked {
		t.Fatal("Wake did not return the box to the awake set")
	}
}
