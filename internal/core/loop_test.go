package core

import (
	"errors"
	"fmt"
	"testing"

	"attila/internal/chkpt"
)

// buildFanout wires n independent producer/consumer pairs.
func buildFanout(sim *Simulator, pairs, count int) []*consumer {
	consumers := make([]*consumer, pairs)
	for i := 0; i < pairs; i++ {
		p := &producer{ids: new(IDSource), count: count}
		p.Init(fmt.Sprintf("Producer%d", i))
		c := &consumer{}
		c.Init(fmt.Sprintf("Consumer%d", i))
		name := fmt.Sprintf("pipe%d", i)
		p.out = sim.Binder.Provide(p.BoxName(), name, 1, 2, 0)
		sim.Binder.Bind(c.BoxName(), name, &c.in)
		sim.Register(c)
		sim.Register(p)
		consumers[i] = c
	}
	return consumers
}

func allReceived(consumers []*consumer, count int) func() bool {
	return func() bool {
		for _, c := range consumers {
			if len(c.received) != count {
				return false
			}
		}
		return true
	}
}

// overdriver owns a bandwidth-1 signal and writes it twice per cycle:
// a model violation with the single-writer contract intact.
type overdriver struct {
	BoxBase
	out *Signal
	ids *IDSource
}

func (o *overdriver) Clock(cycle int64) {
	o.out.Write(cycle, newObj(o.ids, 0))
	o.out.Write(cycle, newObj(o.ids, 1))
}

// A model violation must surface as *SimError from Run, not a panic —
// on a run that asks for workers (the SetWorkers vestige) too.
func TestParallelSimErrorSurfaces(t *testing.T) {
	sim := NewSimulator(0)
	buildPipe(sim, 10)
	bad := &overdriver{ids: &sim.IDs}
	bad.Init("Bad")
	bad.out = sim.Binder.Provide("Bad", "bad.out", 1, 1, 0)
	sink := &consumer{}
	sink.Init("BadSink")
	sim.Binder.Bind("BadSink", "bad.out", &sink.in)
	sim.Register(bad)
	sim.Register(sink)
	sim.SetWorkers(4)
	sim.SetDone(func() bool { return false })
	err := sim.Run(10)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("want *SimError, got %v", err)
	}
}

type panicBox struct {
	BoxBase
	at int64
}

func (b *panicBox) Clock(cycle int64) {
	if cycle == b.at {
		panic("programming error in a box")
	}
}

// Non-SimError panics are programming errors; Run recovers them into
// a *CrashError naming the failing box and cycle — whether or not the
// run asked for workers (the SetWorkers vestige).
func TestParallelPanicPropagates(t *testing.T) {
	for _, workers := range []int{0, 3} {
		sim := NewSimulator(0)
		buildFanout(sim, 3, 100)
		pb := &panicBox{at: 5}
		pb.Init("Panicker")
		sim.Register(pb)
		sim.SetWorkers(workers)
		sim.SetDone(func() bool { return false })
		err := sim.Run(100)
		var ce *CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: want *CrashError, got %v", workers, err)
		}
		if !errors.Is(err, ErrPanic) {
			t.Errorf("workers=%d: error does not match ErrPanic", workers)
		}
		if ce.Box != "Panicker" {
			t.Errorf("workers=%d: crash names box %q, want Panicker", workers, ce.Box)
		}
		if ce.Cycle != 5 {
			t.Errorf("workers=%d: crash at cycle %d, want 5", workers, ce.Cycle)
		}
		if ce.Value != "programming error in a box" {
			t.Errorf("workers=%d: panic value %v not preserved", workers, ce.Value)
		}
		if len(ce.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		// The black box names the same failure and carries stats.
		cr := sim.Crash()
		if cr == nil || cr.Kind != "panic" || cr.Box != "Panicker" {
			t.Fatalf("workers=%d: crash report %+v, want kind=panic box=Panicker", workers, cr)
		}
	}
}

type hookRecorder struct {
	BoxBase
	clocked *int64
}

func (h *hookRecorder) Clock(cycle int64) { *h.clocked++ }

// End-of-cycle hooks run after every box clock of the cycle, in
// registration order.
func TestEndCycleHookOrder(t *testing.T) {
	sim := NewSimulator(0)
	var clocked int64
	for i := 0; i < 6; i++ {
		b := &hookRecorder{clocked: &clocked}
		b.Init(fmt.Sprintf("Box%d", i))
		sim.Register(b)
	}
	var order []int
	for i := 0; i < 3; i++ {
		sim.OnEndCycle(func(cycle int64) {
			if clocked != 6*(cycle+1) {
				t.Errorf("hook %d at cycle %d: %d clocks, want %d", i, cycle, clocked, 6*(cycle+1))
			}
			order = append(order, i)
		})
	}
	cycles := 0
	sim.SetDone(func() bool { cycles++; return cycles == 4 })
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("%d hook runs, want 12", len(order))
	}
	for i, v := range order {
		if v != i%3 {
			t.Fatalf("hooks out of registration order: %v", order)
		}
	}
}

// Fanout wires n producer/consumer pairs, each to send count objects,
// and returns the predicate of all of them received, and what each
// consumer received.
func Fanout(sim *Simulator, pairs, count int) (done func() bool, received func() [][]byte) {
	consumers := buildFanout(sim, pairs, count)
	return allReceived(consumers, count), func() (got [][]byte) {
		for _, c := range consumers {
			got = append(got, fmt.Append(nil, c.received))
		}
		return got
	}
}

// Sixteen wires side by side each deliver in order, on a run that asks
// for eight workers (the SetWorkers vestige).
func TestSignalParallelStress(t *testing.T) {
	sim := NewSimulator(0)
	consumers := buildFanout(sim, 16, 200)
	sim.SetWorkers(8)
	sim.SetDone(allReceived(consumers, 200))
	if err := sim.Run(5000); err != nil {
		t.Fatal(err)
	}
	for i, c := range consumers {
		for j, v := range c.received {
			if v != j {
				t.Fatalf("consumer %d: out of order delivery at %d", i, j)
			}
		}
	}
}

// markBox marks its publication on every clock.
type markBox struct {
	BoxBase
	pub *Publication
}

func (m *markBox) Clock(cycle int64) { m.pub.Mark() }

// A publication marked every cycle folds once per simulated cycle, at
// the end of the cycle it was marked in.
func TestPublicationFoldsPerCycle(t *testing.T) {
	sim := NewSimulator(0)
	consumers := buildFanout(sim, 2, 37)
	m := &markBox{}
	m.Init("Marker")
	var folds int64
	m.pub = sim.Publish("", func(c int64) {
		if c != folds {
			t.Errorf("fold of cycle %d after %d folds", c, folds)
		}
		folds++
	})
	sim.Register(m)
	sim.SetDone(allReceived(consumers, 37))
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if folds != sim.Cycle() {
		t.Errorf("publication folded %d times over %d cycles", folds, sim.Cycle())
	}
}

// ckptProducer sends ten objects in each of two bursts (cycles 0-9
// and 30-39) with an idle window between them, so a mid-run
// checkpoint can capture at a quiesced barrier. Its state is
// snapshottable for the round-trip test.
type ckptProducer struct {
	BoxBase
	out  *Signal
	ids  IDSource
	sent int
}

func (p *ckptProducer) Clock(cycle int64) {
	if (cycle >= 0 && cycle < 10) || (cycle >= 30 && cycle < 40) {
		p.out.Write(cycle, newObj(&p.ids, p.sent))
		p.sent++
	}
}

func (p *ckptProducer) SnapshotName() string { return "test." + p.BoxName() }

func (p *ckptProducer) SnapshotState(e *chkpt.Encoder) {
	e.I64(int64(p.sent))
	e.U64(p.ids.next)
}

func (p *ckptProducer) RestoreState(d *chkpt.Decoder) error {
	p.sent = int(d.I64())
	p.ids.next = d.U64()
	return d.Err()
}

// ckptConsumer is the snapshottable consumer for the round-trip test.
type ckptConsumer struct {
	BoxBase
	in       *Signal
	received []int
}

func (c *ckptConsumer) Clock(cycle int64) {
	for _, o := range c.in.Read(cycle) {
		c.received = append(c.received, o.(*testObj).val)
	}
}

func (c *ckptConsumer) SnapshotName() string { return "test." + c.BoxName() }

func (c *ckptConsumer) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(len(c.received)))
	for _, v := range c.received {
		e.I64(int64(v))
	}
}

func (c *ckptConsumer) RestoreState(d *chkpt.Decoder) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	c.received = c.received[:0]
	for i := 0; i < n; i++ {
		c.received = append(c.received, int(d.I64()))
	}
	return d.Err()
}

// CheckpointMachine builds the toy of TestCheckpointRoundTripCore: two
// pairs of a ckptProducer and a ckptConsumer, done when both consumers
// hold their twenty objects. Every interval cycles its engine captures
// the Simulator, Stats and Binder sections and the boxes' own into path,
// at the first quiesced barrier (0: never). recv is what the consumers
// received.
func CheckpointMachine(path string, interval int64) (sim *Simulator, eng *chkpt.Engine, parts []chkpt.Snapshotter, recv func() [][]byte) {
	sim = NewSimulator(10)
	consumers := make([]*ckptConsumer, 2)
	parts = []chkpt.Snapshotter{sim, sim.Stats, sim.Binder}
	for i := range consumers {
		p := &ckptProducer{}
		p.Init(fmt.Sprintf("Producer%d", i))
		c := &ckptConsumer{}
		c.Init(fmt.Sprintf("Consumer%d", i))
		name := fmt.Sprintf("pipe%d", i)
		p.out = sim.Binder.Provide(p.BoxName(), name, 1, 4, 0)
		sim.Binder.Bind(c.BoxName(), name, &c.in)
		sim.Register(c)
		sim.Register(p)
		parts = append(parts, p, c)
		consumers[i] = c
	}
	sim.SetDone(func() bool {
		for _, c := range consumers {
			if len(c.received) != 20 {
				return false
			}
		}
		return true
	})
	eng = &chkpt.Engine{
		Interval: interval,
		Path:     path,
		Quiesced: sim.Binder.Idle,
		Capture: func() (*chkpt.Snapshot, error) {
			return chkpt.Capture(chkpt.Meta{Cycle: sim.Cycle()}, parts), nil
		},
	}
	sim.OnEndCycle(eng.EndCycle)
	recv = func() (got [][]byte) {
		for _, c := range consumers {
			got = append(got, fmt.Append(nil, c.received))
		}
		return got
	}
	return sim, eng, parts, recv
}

// A core.Signals section of the right length that names one wire twice
// and omits another is corrupt: restoring it would leave the omitted
// wire with its old traffic. It is refused, and no wire is touched.
func TestSignalsSectionRejectsRepeatedName(t *testing.T) {
	sim := NewSimulator(0)
	buildFanout(sim, 2, 0) // wires pipe0 and pipe1
	var e chkpt.Encoder
	e.U32(2)
	for range 2 {
		e.Str("pipe0")
		e.U64(7)
		e.U64(7)
	}
	err := sim.Binder.RestoreState(chkpt.NewDecoder(e.Bytes()))
	if !errors.Is(err, chkpt.ErrCorrupt) {
		t.Fatalf("restore of a section naming pipe0 twice: %v, want chkpt.ErrCorrupt", err)
	}
	for _, sig := range sim.Binder.Signals() {
		if p, c := sig.Traffic(); p != 0 || c != 0 {
			t.Errorf("%s restored to %d/%d from a refused section", sig.Name(), p, c)
		}
	}
}
