package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"attila/internal/chkpt"
)

// buildFanout wires n independent producer/consumer pairs, the
// smallest network that actually exercises sharding (each pair may
// land on a different worker). Each producer gets a private IDSource:
// the shared one hands out IDs in host scheduling order across
// shards, which would make trace bytes (and nothing else) vary.
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

// A parallel run must be indistinguishable from the serial one: same
// cycle count, same delivery order, byte-identical statistics CSV and
// signal trace.
func TestParallelMatchesSerialCore(t *testing.T) {
	type result struct {
		cycles int64
		recv   [][]int
		csv    []byte
		trace  []byte
	}
	run := func(workers int) result {
		sim := NewSimulator(10)
		consumers := buildFanout(sim, 5, 37)
		var traceBuf bytes.Buffer
		tr := NewSigTraceWriter(&traceBuf)
		sim.Binder.SetTracer(tr)
		sim.SetWorkers(workers)
		sim.SetDone(allReceived(consumers, 37))
		if err := sim.Run(1000); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := sim.Stats.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		res := result{cycles: sim.Cycle(), csv: csv.Bytes(), trace: traceBuf.Bytes()}
		for _, c := range consumers {
			res.recv = append(res.recv, c.received)
		}
		return res
	}

	serial := run(0)
	for _, workers := range []int{2, 3, 8} {
		par := run(workers)
		if par.cycles != serial.cycles {
			t.Errorf("workers=%d: %d cycles, serial %d", workers, par.cycles, serial.cycles)
		}
		for i := range serial.recv {
			if len(par.recv[i]) != len(serial.recv[i]) {
				t.Fatalf("workers=%d consumer %d: %d received, serial %d",
					workers, i, len(par.recv[i]), len(serial.recv[i]))
			}
			for j := range serial.recv[i] {
				if par.recv[i][j] != serial.recv[i][j] {
					t.Fatalf("workers=%d consumer %d: delivery order differs", workers, i)
				}
			}
		}
		if !bytes.Equal(par.csv, serial.csv) {
			t.Errorf("workers=%d: stats CSV differs from serial", workers)
		}
		if !bytes.Equal(par.trace, serial.trace) {
			t.Errorf("workers=%d: signal trace differs from serial", workers)
		}
	}
}

// overdriver owns a bandwidth-1 signal and writes it twice per cycle:
// a model violation raised from whichever shard clocks it, with the
// single-writer contract intact.
type overdriver struct {
	BoxBase
	out *Signal
	ids *IDSource
}

func (o *overdriver) Clock(cycle int64) {
	o.out.Write(cycle, newObj(o.ids, 0))
	o.out.Write(cycle, newObj(o.ids, 1))
}

// A model violation on a worker shard must surface as *SimError from
// Run — not a panic, not a deadlocked barrier.
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
// a *CrashError naming the failing box, cycle, and shard — in parallel
// mode exactly as in serial mode.
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
	clocked *atomic.Int64
}

func (h *hookRecorder) Clock(cycle int64) { h.clocked.Add(1) }

// End-of-cycle hooks run on the coordinator after every box clock of
// the cycle, in registration order — in both execution modes.
func TestEndCycleHookOrder(t *testing.T) {
	for _, workers := range []int{0, 4} {
		sim := NewSimulator(0)
		var clocked atomic.Int64
		for i := 0; i < 6; i++ {
			b := &hookRecorder{clocked: &clocked}
			b.Init(fmt.Sprintf("Box%d", i))
			sim.Register(b)
		}
		var order []int
		for i := 0; i < 3; i++ {
			i := i
			sim.OnEndCycle(func(cycle int64) {
				if got := clocked.Load(); got != 6*(cycle+1) {
					t.Errorf("workers=%d hook %d at cycle %d: %d clocks, want %d",
						workers, i, cycle, got, 6*(cycle+1))
				}
				order = append(order, i)
			})
		}
		sim.SetWorkers(workers)
		cycles := 0
		sim.SetDone(func() bool { cycles++; return cycles == 4 })
		if err := sim.Run(100); err != nil {
			t.Fatal(err)
		}
		if len(order) != 12 {
			t.Fatalf("workers=%d: %d hook runs, want 12", workers, len(order))
		}
		for i, v := range order {
			if v != i%3 {
				t.Fatalf("workers=%d: hooks out of registration order: %v", workers, order)
			}
		}
	}
}

// Pinned boxes must share a shard; the split must depend only on
// registration and pin order.
func TestPartitionPinning(t *testing.T) {
	sim := NewSimulator(0)
	boxes := make([]Box, 8)
	for i := range boxes {
		b := &panicBox{at: -1}
		b.Init(fmt.Sprintf("Box%d", i))
		boxes[i] = b
		sim.Register(b)
	}
	sim.Pin("grp", boxes[1], boxes[4], boxes[6])
	shards := sim.partition(3)
	if len(shards) != 3 {
		t.Fatalf("want 3 shards, got %d", len(shards))
	}
	shardOf := make(map[Box]int)
	total := 0
	for i, sh := range shards {
		for _, b := range sh {
			shardOf[b] = i
			total++
		}
	}
	if total != 8 {
		t.Fatalf("partition lost boxes: %d of 8", total)
	}
	if shardOf[boxes[1]] != shardOf[boxes[4]] || shardOf[boxes[1]] != shardOf[boxes[6]] {
		t.Fatalf("pinned boxes split across shards: %d %d %d",
			shardOf[boxes[1]], shardOf[boxes[4]], shardOf[boxes[6]])
	}
	// More workers than units: shard count collapses to the unit count.
	if got := len(sim.partition(100)); got != 6 {
		t.Fatalf("want 6 shards for 6 units, got %d", got)
	}
}

// Stress the single-writer/single-reader signal contract across
// shards; meaningful under `go test -race`, which would flag any
// cross-goroutine slot the latency argument does not actually
// separate.
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

// A publication marked every cycle folds once per simulated cycle.
func TestPublicationFoldsPerCycle(t *testing.T) {
	for _, workers := range []int{0, 2} {
		sim := NewSimulator(0)
		consumers := buildFanout(sim, 2, 37)
		m := &markBox{}
		m.Init("Marker")
		var folds atomic.Int64
		m.pub = sim.Publish("Marker", "", func(c int64) { folds.Add(1) })
		sim.Register(m)
		sim.SetWorkers(workers)
		sim.SetDone(allReceived(consumers, 37))
		if err := sim.Run(1000); err != nil {
			t.Fatal(err)
		}
		if got := folds.Load(); got != sim.Cycle() {
			t.Errorf("workers=%d: publication folded %d times over %d cycles", workers, got, sim.Cycle())
		}
	}
}

// A publication written by a name that is not a registered box is a
// wiring bug; the parallel run must refuse it instead of silently
// putting it on some default shard's list.
func TestPublicationUnknownWriter(t *testing.T) {
	sim := NewSimulator(0)
	consumers := buildFanout(sim, 2, 5)
	sim.SetWorkers(2)
	sim.Publish("NoSuchBox", "", func(c int64) {})
	sim.SetDone(allReceived(consumers, 5))
	err := sim.Run(100)
	if err == nil || !strings.Contains(err.Error(), "NoSuchBox") {
		t.Fatalf("want unknown-writer error, got %v", err)
	}
}

// The cost-seeded partition must place units by summed cost —
// heaviest first onto the least-loaded shard — and stay deterministic
// for equal inputs.
func TestPartitionByCost(t *testing.T) {
	sim := NewSimulator(0)
	boxes := make([]Box, 6)
	for i := range boxes {
		b := &panicBox{at: -1}
		b.Init(fmt.Sprintf("Box%d", i))
		boxes[i] = b
		sim.Register(b)
	}
	sim.SetBoxCosts(map[string]float64{
		"Box0": 10, "Box1": 1, "Box2": 1, "Box3": 1, "Box4": 1, "Box5": 1,
	})
	shards := sim.partition(2)
	if len(shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(shards))
	}
	// LPT: the 10-cost box goes first onto shard 0; the five 1-cost
	// boxes all land on shard 1 (load 5 < 10 throughout).
	if len(shards[0]) != 1 || shards[0][0].BoxName() != "Box0" {
		t.Errorf("heavy box not isolated: shard 0 = %d boxes", len(shards[0]))
	}
	if len(shards[1]) != 5 {
		t.Errorf("light boxes split: shard 1 = %d boxes, want 5", len(shards[1]))
	}
	// Registration order within the shard.
	for i := 1; i < len(shards[1]); i++ {
		if shards[1][i-1].BoxName() > shards[1][i].BoxName() {
			t.Fatalf("shard 1 out of registration order: %v", shards[1])
		}
	}
	// Determinism: same inputs, same split.
	again := sim.partition(2)
	for w := range shards {
		if len(again[w]) != len(shards[w]) {
			t.Fatalf("partition not deterministic")
		}
		for i := range shards[w] {
			if again[w][i] != shards[w][i] {
				t.Fatalf("partition not deterministic")
			}
		}
	}
}

// Worker resolution: requests clamp to the shardable unit count and to
// GOMAXPROCS (with a warning); anything at or below 1 is serial.
func TestWorkerResolution(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)

	small := NewSimulator(0)
	buildFanout(small, 2, 5) // 4 units
	small.SetWorkers(9)
	if got := small.EffectiveWorkers(); got != 4 {
		t.Errorf("unit clamp: %d workers, want 4", got)
	}
	small.SetWorkers(-1)
	if got := small.EffectiveWorkers(); got > 1 {
		t.Errorf("negative request: %d workers, want serial", got)
	}

	var logBuf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer slog.SetDefault(old)
	sim := NewSimulator(0)
	buildFanout(sim, 20, 5) // 40 units
	sim.SetWorkers(37)
	if got := sim.EffectiveWorkers(); got != maxProcs {
		t.Errorf("GOMAXPROCS clamp: %d workers, want %d", got, maxProcs)
	}
	if !strings.Contains(logBuf.String(), "parallel workers clamped") {
		t.Errorf("clamp warning not logged: %q", logBuf.String())
	}
}

// recObserver counts BoxClocked calls per box name; safe for
// concurrent shards.
type recObserver struct {
	mu    sync.Mutex
	calls map[string]int
}

func (o *recObserver) BoxClocked(shard int, box Box, hostNs int64) {
	o.mu.Lock()
	o.calls[box.BoxName()]++
	o.mu.Unlock()
}

// The parallel coordinator reports its join-barrier wait under the
// barrier pseudo-box, keeping sync cost out of the real boxes'
// attribution.
func TestBarrierWaitObserved(t *testing.T) {
	sim := NewSimulator(0)
	consumers := buildFanout(sim, 4, 50)
	sim.SetWorkers(2)
	obs := &recObserver{calls: make(map[string]int)}
	sim.SetClockObserver(obs, 1)
	sim.SetDone(allReceived(consumers, 50))
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if obs.calls[BarrierBoxName] == 0 {
		t.Errorf("no barrier-wait samples reported under %q", BarrierBoxName)
	}
	if obs.calls["Producer0"] == 0 {
		t.Errorf("no box samples reported alongside the barrier row: %v", obs.calls)
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
	e.U64(p.ids.next.Load())
}

func (p *ckptProducer) RestoreState(d *chkpt.Decoder) error {
	p.sent = int(d.I64())
	p.ids.next.Store(d.U64())
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

// The core-level checkpoint round trip over the Simulator, Stats and
// Binder sections: with an interval of 7 the engine captures at the
// first quiesced barrier at least 7 cycles after the last capture, and
// a run restored from the first snapshot, serially or on two workers,
// is bit-identical to the uninterrupted serial one.
func TestCheckpointRoundTripCore(t *testing.T) {
	build := func(workers int) (*Simulator, []*ckptConsumer, []chkpt.Snapshotter) {
		sim := NewSimulator(10)
		consumers := make([]*ckptConsumer, 2)
		parts := []chkpt.Snapshotter{sim, sim.Stats, sim.Binder}
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
		sim.SetWorkers(workers)
		sim.SetDone(func() bool {
			for _, c := range consumers {
				if len(c.received) != 20 {
					return false
				}
			}
			return true
		})
		return sim, consumers, parts
	}

	type result struct {
		cycles int64
		csv    []byte
		recv   [][]int
	}
	finish := func(sim *Simulator, consumers []*ckptConsumer) result {
		var csv bytes.Buffer
		if err := sim.Stats.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		res := result{cycles: sim.Cycle(), csv: csv.Bytes()}
		for _, c := range consumers {
			res.recv = append(res.recv, c.received)
		}
		return res
	}
	same := func(label string, got, want result) {
		t.Helper()
		if got.cycles != want.cycles {
			t.Errorf("%s: stopped at %d cycles, reference %d", label, got.cycles, want.cycles)
		}
		if !bytes.Equal(got.csv, want.csv) {
			t.Errorf("%s: stats CSV differs from the uninterrupted run", label)
		}
		if fmt.Sprint(got.recv) != fmt.Sprint(want.recv) {
			t.Errorf("%s: delivery differs from the uninterrupted run", label)
		}
	}

	// Reference: the uninterrupted serial run.
	refSim, refCons, _ := build(0)
	if err := refSim.Run(200); err != nil {
		t.Fatal(err)
	}
	ref := finish(refSim, refCons)

	for _, workers := range []int{0, 2} {
		label := fmt.Sprintf("workers=%d", workers)

		// Checkpointed run: identical, with the engine attached.
		sim2, cons2, parts2 := build(workers)
		var snaps []*chkpt.Snapshot
		var snapCycles []int64
		eng := &chkpt.Engine{
			Interval: 7,
			Path:     filepath.Join(t.TempDir(), "core.ckpt"),
			Quiesced: sim2.Binder.Idle,
			Capture: func() (*chkpt.Snapshot, error) {
				s := chkpt.Capture(chkpt.Meta{Cycle: sim2.Cycle()}, parts2)
				snaps = append(snaps, s)
				snapCycles = append(snapCycles, sim2.Cycle())
				return s, nil
			},
		}
		sim2.OnEndCycle(eng.EndCycle)
		if err := sim2.Run(200); err != nil {
			t.Fatal(err)
		}
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		// The pipes drain at cycle 13 (the last write of the first burst,
		// at cycle 9, arrives there), the first quiesced barrier past the
		// interval; the next one 7 cycles on is quiesced too. sim.Cycle()
		// inside the hook is already the next cycle to run.
		if len(snapCycles) < 2 || snapCycles[0] != 14 || snapCycles[1] != 21 {
			t.Fatalf("%s: captures at cycles %v, want 14, 21, ...", label, snapCycles)
		}
		// The engine must not have perturbed the run.
		same(label+" checkpointed", finish(sim2, cons2), ref)

		// Restore from the first snapshot (through the wire codec) and
		// run to completion.
		var buf bytes.Buffer
		if err := snaps[0].Encode(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := chkpt.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sim3, cons3, parts3 := build(workers)
		if err := chkpt.Restore(snap, parts3, false); err != nil {
			t.Fatal(err)
		}
		if sim3.Cycle() != snapCycles[0] {
			t.Fatalf("%s: restored at cycle %d, want %d", label, sim3.Cycle(), snapCycles[0])
		}
		if err := sim3.Run(200); err != nil {
			t.Fatal(err)
		}
		same(label+" restored", finish(sim3, cons3), ref)
	}
}
