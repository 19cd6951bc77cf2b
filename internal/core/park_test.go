package core

import (
	"fmt"
	"testing"
)

// The toy machine of the park, wake and accrual tests: pairs of a
// source and a sink. A source sends numbered objects in bursts, each
// with a latency of its own, while it holds credit, and sleeps through
// the cycles it holds none, counting them (woken by the fold of the
// sink's releases); a gap between bursts it waits out awake (a timed
// wait). A sink holds each object a few cycles (awake) before returning
// its credit through a Publication and, starved, sleeps counting the
// cycle once in one counter and once per idle lane in another (woken by
// the wire). Every object carries the cycle it must be read on, so a
// wake that comes late shows as a wrong (or missing) observation. The
// every-cycle model is the same machine under a pass-everything gate,
// where nobody parks and every counter is incremented in place.

type parkObj struct {
	DynObject
	val    int
	arrive int64
}

type seen struct {
	val   int
	cycle int64
}

type creditSource struct {
	BoxBase
	out      *Signal
	credits  int
	total    int
	burst    int   // objects per sending cycle (<= bandwidth)
	maxLat   int   // object n arrives maxLat - spread·n mod maxLat cycles
	spread   int   // after its write
	gapEvery int   // a gap after every gapEvery sending cycles
	gap      int64 // quiet cycles of a gap

	sent, bursts int
	nextSend     int64
	blocked      Counter // cycles without credit
	clocks       int
	sendLog      []int64 // cycle each object was written on
}

func (p *creditSource) Clock(cycle int64) {
	p.clocks++
	switch {
	case p.sent == p.total:
		p.Park() // nothing left to do, ever
	case p.credits == 0:
		p.blocked.Inc()
		p.ParkCounting(&p.blocked, 1) // until the sink's release folds
	case cycle >= p.nextSend:
		for n := 0; n < p.burst && p.credits > 0 && p.sent < p.total; n++ {
			lat := p.maxLat - (p.sent*p.spread)%p.maxLat
			p.out.WriteLat(cycle, lat, &parkObj{val: p.sent, arrive: cycle + int64(lat)})
			p.sendLog = append(p.sendLog, cycle)
			p.credits--
			p.sent++
		}
		p.bursts++
		p.nextSend = cycle + 1
		if p.bursts%p.gapEvery == 0 {
			p.nextSend += p.gap
		}
	}
}

type creditSink struct {
	BoxBase
	in       *Signal
	hold     int64
	lanes    int
	pub      *Publication
	released int // written here, folded into the source at the end of the cycle

	held      []int64 // release cycles of the objects being worked on
	got       []seen
	clocks    int
	busy      Counter
	starved   Counter // cycles with nothing to work on
	lanesIdle Counter // lanes of them

	askedAt  int64 // the cycle of the last Clock that asked to park
	miscount bool  // sleep through idle lanes at the wrong rate
}

func (c *creditSink) Clock(cycle int64) {
	c.clocks++
	for _, o := range c.in.Read(cycle) {
		obj := o.(*parkObj)
		if obj.arrive != cycle {
			panic(fmt.Sprintf("object %d read at %d, arrives %d", obj.val, cycle, obj.arrive))
		}
		c.got = append(c.got, seen{obj.val, cycle})
		c.held = append(c.held, cycle+c.hold)
	}
	for len(c.held) > 0 && c.held[0] <= cycle {
		c.held = c.held[1:]
		c.released++
		c.pub.Mark()
	}
	if len(c.held) > 0 {
		c.busy.Inc()
		return
	}
	c.starved.Inc()
	c.lanesIdle.Add(float64(c.lanes))
	c.ParkCounting(&c.starved, 1) // two counters at once,
	if c.miscount {
		c.ParkCounting(&c.lanesIdle, 1)
	} else {
		c.ParkCounting(&c.lanesIdle, c.lanes)
	}
	c.askedAt = cycle // until the wire carries something
}

type creditPair struct {
	src       *creditSource
	sink      *creditSink
	sinkFirst bool
}

// buildCreditMachine wires source i to sink i, each pair to send total
// objects, and ends when every sink has them all. A pair with sinkFirst
// registers the sink ahead of the source: the write of a cycle then
// lands after the sink parked in it and wakes it at once, for a Clock
// on the very next cycle with nothing to credit. The other order, with
// a latency above 1, leaves the object in flight on the cycle the sink
// runs dry: a park refused.
func buildCreditMachine(interval int64, total int, pairs ...creditPair) *Simulator {
	sim := NewSimulator(interval)
	for i, p := range pairs {
		src, sink := p.src, p.sink
		src.total, sink.askedAt = total, -1
		src.Init(fmt.Sprintf("Source%d", i))
		sink.Init(fmt.Sprintf("Sink%d", i))
		wire := fmt.Sprintf("wire%d", i)
		src.out = sim.Binder.Provide(src.BoxName(), wire, src.burst, 1, src.maxLat)
		sim.Binder.Bind(sink.BoxName(), wire, &sink.in)
		sink.pub = sim.Publish(src.BoxName(), func(int64) {
			src.credits += sink.released
			sink.released = 0
		})
		sim.Stats.ShadowCounter(&src.blocked, src.BoxName()+".blockedCycles")
		sim.Stats.ShadowCounter(&sink.busy, sink.BoxName()+".busyCycles")
		sim.Stats.ShadowCounter(&sink.starved, sink.BoxName()+".starvedCycles")
		sim.Stats.ShadowCounter(&sink.lanesIdle, sink.BoxName()+".idleLaneCycles")
		if p.sinkFirst {
			sim.Register(sink)
			sim.Register(src)
		} else {
			sim.Register(src)
			sim.Register(sink)
		}
	}
	sim.SetDone(func() bool {
		for _, p := range pairs {
			if len(p.sink.got) < total || len(p.sink.held) > 0 {
				return false
			}
		}
		return true
	})
	return sim
}

// ParkMachine builds the park/wake toy for the differential oracle
// (oracle_test.go). Its frames are what each sink observed and when its
// source sent: every object is read on its arrival cycle (the sink
// panics otherwise), every send happens on the cycle the every-box loop
// makes it, a credit-blocked source resumes on the cycle after the
// release. clocks counts the box clocks the run took.
func ParkMachine() (sim *Simulator, frames func() [][]byte, clocks func() int) {
	pair := func(burst, maxLat, credits int, gap, hold int64) creditPair {
		return creditPair{&creditSource{credits: credits, burst: burst, maxLat: maxLat, spread: 7, gapEvery: 3, gap: gap},
			&creditSink{hold: hold}, true} // sink first: order must not matter
	}
	pairs := []creditPair{
		pair(1, 1, 4, 0, 3),    // latency 1, tight credit
		pair(3, 6, 5, 40, 2),   // bandwidth 3, WriteLat up to 6, long gaps
		pair(2, 9, 2, 200, 11), // credit-blocked most of the time
		pair(4, 4, 64, 500, 1), // never blocked, very long gaps
	}
	sim = buildCreditMachine(0, 120, pairs...)
	frames = func() (seen [][]byte) {
		for _, p := range pairs {
			seen = append(seen, fmt.Appendf(nil, "%v %v", p.sink.got, p.src.sendLog))
		}
		return seen
	}
	clocks = func() (n int) {
		for _, p := range pairs {
			n += p.src.clocks + p.sink.clocks
		}
		return n
	}
	return sim, frames, clocks
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
	sink := &creditSink{}
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
