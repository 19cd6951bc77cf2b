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

// buildLatFanout is buildFanout with a configurable signal latency:
// every producer/consumer pair is its own pin unit, so a latency of
// lat on every pipe makes lat the minimum cross-unit latency — the
// skew batch length once batching is enabled.
func buildLatFanout(sim *Simulator, pairs, count, lat int) []*consumer {
	consumers := make([]*consumer, pairs)
	for i := 0; i < pairs; i++ {
		p := &producer{ids: new(IDSource), count: count}
		p.Init(fmt.Sprintf("Producer%d", i))
		c := &consumer{}
		c.Init(fmt.Sprintf("Consumer%d", i))
		name := fmt.Sprintf("pipe%d", i)
		p.out = sim.Binder.Provide(p.BoxName(), name, 1, lat, 0)
		sim.Binder.Bind(c.BoxName(), name, &c.in)
		sim.Register(c)
		sim.Register(p)
		consumers[i] = c
	}
	return consumers
}

// The skew batch must be derived from the pin-unit topology alone:
// minimum cross-unit latency, floored to 1, capped at the limit, and
// 1 whenever batching is off or a latency-1 edge pins units together.
func TestSkewBatchFromTopology(t *testing.T) {
	build := func(lat int) *Simulator {
		sim := NewSimulator(0)
		buildLatFanout(sim, 2, 5, lat)
		return sim
	}

	sim := build(4)
	if got := sim.SkewBatch(); got != 1 {
		t.Errorf("batching off: SkewBatch() = %d, want 1", got)
	}
	sim.EnableSkewBatching(0)
	if got := sim.SkewBatch(); got != 4 {
		t.Errorf("lat-4 topology: SkewBatch() = %d, want 4", got)
	}

	sim = build(4)
	sim.EnableSkewBatching(3)
	if got := sim.SkewBatch(); got != 3 {
		t.Errorf("limit 3: SkewBatch() = %d, want 3", got)
	}

	sim = build(4)
	sim.EnableSkewBatching(0)
	sim.ConstrainSkew("Producer0", "Consumer1", 2)
	if got := sim.SkewBatch(); got != 2 {
		t.Errorf("lat-2 constraint: SkewBatch() = %d, want 2", got)
	}

	sim = build(1)
	sim.EnableSkewBatching(0)
	if got := sim.SkewBatch(); got != 1 {
		t.Errorf("lat-1 topology: SkewBatch() = %d, want 1", got)
	}

	// All boxes in one pin unit: no cross-unit edges, conservative 1.
	sim = NewSimulator(0)
	buildLatFanout(sim, 2, 5, 4)
	sim.Pin("all", sim.Boxes()...)
	sim.EnableSkewBatching(0)
	if got := sim.SkewBatch(); got != 1 {
		t.Errorf("single unit: SkewBatch() = %d, want 1", got)
	}
}

// Skew batching must never change what a run computes: serial and
// 2/3/4-worker runs with free-running shards (with and without the
// warm-up re-shard) must produce the same cycle count, delivery
// order, statistics CSV and signal trace as the unbatched serial run.
func TestSkewedParallelMatchesSerial(t *testing.T) {
	type result struct {
		cycles int64
		batch  int
		recv   [][]int
		csv    []byte
		trace  []byte
	}
	run := func(workers int, batching bool, reshardAt int64) result {
		sim := NewSimulator(10)
		consumers := buildLatFanout(sim, 4, 37, 4)
		var traceBuf bytes.Buffer
		tr := NewSigTraceWriter(&traceBuf)
		sim.Binder.SetTracer(tr)
		if batching {
			sim.EnableSkewBatching(0)
		}
		sim.SetAutoReshard(reshardAt)
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
		res := result{cycles: sim.Cycle(), batch: sim.SkewBatch(), csv: csv.Bytes(), trace: traceBuf.Bytes()}
		for _, c := range consumers {
			res.recv = append(res.recv, c.received)
		}
		return res
	}

	// The done predicate is only polled at full syncs, so enabling
	// batching may stop the run up to B-1 cycles later than the
	// unbatched run — but what was computed must be identical, and
	// serial/parallel batched runs must match byte for byte.
	unbatched := run(0, false, 0)
	serial := run(0, true, 0)
	for i := range unbatched.recv {
		if len(serial.recv[i]) != len(unbatched.recv[i]) {
			t.Fatalf("batching changed consumer %d: %d received, unbatched %d",
				i, len(serial.recv[i]), len(unbatched.recv[i]))
		}
		for j := range unbatched.recv[i] {
			if serial.recv[i][j] != unbatched.recv[i][j] {
				t.Fatalf("batching changed consumer %d delivery order", i)
			}
		}
	}
	cases := []struct {
		name      string
		workers   int
		batching  bool
		reshardAt int64
	}{
		{"2w", 2, true, 0},
		{"3w", 3, true, 0},
		{"4w", 4, true, 0},
		{"4w-reshard", 4, true, 16},
	}
	for _, tc := range cases {
		par := run(tc.workers, tc.batching, tc.reshardAt)
		if par.batch != 4 {
			t.Errorf("%s: skew batch %d, want 4", tc.name, par.batch)
		}
		if par.cycles != serial.cycles {
			t.Errorf("%s: %d cycles, serial %d", tc.name, par.cycles, serial.cycles)
		}
		for i := range serial.recv {
			if len(par.recv[i]) != len(serial.recv[i]) {
				t.Fatalf("%s consumer %d: %d received, serial %d",
					tc.name, i, len(par.recv[i]), len(serial.recv[i]))
			}
			for j := range serial.recv[i] {
				if par.recv[i][j] != serial.recv[i][j] {
					t.Fatalf("%s consumer %d: delivery order differs", tc.name, i)
				}
			}
		}
		if !bytes.Equal(par.csv, serial.csv) {
			t.Errorf("%s: stats CSV differs from serial", tc.name)
		}
		if !bytes.Equal(par.trace, serial.trace) {
			t.Errorf("%s: signal trace differs from serial", tc.name)
		}
	}
}

// A cycle limit that is not a multiple of the batch length ends on a
// partial batch: global hooks must run at every full-sync boundary
// plus the clipped final cycle, and FullSync must report exactly
// those cycles.
func TestSkewPartialFinalBatch(t *testing.T) {
	for _, workers := range []int{0, 2} {
		sim := NewSimulator(0)
		buildLatFanout(sim, 2, 1000, 4)
		sim.EnableSkewBatching(0)
		sim.SetWorkers(workers)
		var hookCycles []int64
		sim.OnEndCycle(func(c int64) { hookCycles = append(hookCycles, c) })
		sim.SetDone(func() bool { return false })
		err := sim.Run(18)
		if !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("workers=%d: want ErrCycleLimit, got %v", workers, err)
		}
		if sim.Cycle() != 18 {
			t.Fatalf("workers=%d: stopped at cycle %d, want 18", workers, sim.Cycle())
		}
		want := []int64{3, 7, 11, 15, 17}
		if len(hookCycles) != len(want) {
			t.Fatalf("workers=%d: hooks at %v, want %v", workers, hookCycles, want)
		}
		for i, c := range want {
			if hookCycles[i] != c {
				t.Fatalf("workers=%d: hooks at %v, want %v", workers, hookCycles, want)
			}
		}
		if !sim.FullSync(17) {
			t.Errorf("workers=%d: clipped final cycle 17 must be a full sync", workers)
		}
		if sim.FullSync(16) {
			t.Errorf("workers=%d: mid-batch cycle 16 reported as full sync", workers)
		}
		if !sim.FullSync(19) {
			t.Errorf("workers=%d: batch boundary 19 must be a full sync", workers)
		}
	}
}

// markBox marks its publication on every clock.
type markBox struct {
	BoxBase
	pub *Publication
}

func (m *markBox) Clock(cycle int64) { m.pub.Mark() }

// A publication marked every cycle folds once per simulated cycle, on
// the writer's shard even while shards free-run between full syncs.
func TestPublicationFoldsPerCycle(t *testing.T) {
	for _, workers := range []int{0, 2} {
		sim := NewSimulator(0)
		consumers := buildLatFanout(sim, 2, 37, 4)
		m := &markBox{}
		m.Init("Marker")
		var folds atomic.Int64
		m.pub = sim.Publish("Marker", "", func(c int64) { folds.Add(1) })
		sim.Register(m)
		sim.EnableSkewBatching(0)
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
	consumers := buildLatFanout(sim, 2, 5, 4)
	sim.EnableSkewBatching(0)
	sim.SetWorkers(2)
	sim.Publish("NoSuchBox", "", func(c int64) {})
	sim.SetDone(allReceived(consumers, 5))
	err := sim.Run(100)
	if err == nil || !strings.Contains(err.Error(), "NoSuchBox") {
		t.Fatalf("want unknown-writer error, got %v", err)
	}
}

// The profile-guided partition must place units by summed cost —
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

// Worker resolution: -1 auto-sizes to GOMAXPROCS, requests clamp to
// the shardable unit count and to GOMAXPROCS (with a warning).
func TestWorkerResolution(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)

	sim := NewSimulator(0)
	buildLatFanout(sim, 20, 5, 1) // 40 units
	sim.SetWorkers(-1)
	if got := sim.EffectiveWorkers(); got != maxProcs {
		t.Errorf("auto-size: %d workers, want GOMAXPROCS %d", got, maxProcs)
	}

	small := NewSimulator(0)
	buildLatFanout(small, 2, 5, 1) // 4 units
	small.SetWorkers(9)
	if got := small.EffectiveWorkers(); got != 4 {
		t.Errorf("unit clamp: %d workers, want 4", got)
	}

	var logBuf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer slog.SetDefault(old)
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
	consumers := buildLatFanout(sim, 4, 50, 4)
	sim.EnableSkewBatching(0)
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
// checkpoint can capture at a quiesced full sync. Its state is
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

// Checkpointing under skew batching: with a checkpoint interval (7)
// that is not divisible by the batch length (4), the engine must
// capture at the next quiesced full sync, and a run restored from
// that snapshot must be bit-identical to the uninterrupted one.
func TestSkewedCheckpointRoundTrip(t *testing.T) {
	build := func() (*Simulator, []*ckptConsumer, []chkpt.Snapshotter) {
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
		sim.EnableSkewBatching(0)
		sim.SetWorkers(2)
		done := func() bool {
			for _, c := range consumers {
				if len(c.received) != 20 {
					return false
				}
			}
			return true
		}
		sim.SetDone(done)
		return sim, consumers, parts
	}

	finish := func(sim *Simulator, consumers []*ckptConsumer) (int64, []byte, [][]int) {
		var csv bytes.Buffer
		if err := sim.Stats.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		recv := make([][]int, len(consumers))
		for i, c := range consumers {
			recv[i] = c.received
		}
		return sim.Cycle(), csv.Bytes(), recv
	}

	// Reference: the uninterrupted run.
	ref, refCons, _ := build()
	if ref.SkewBatch() != 4 {
		t.Fatalf("skew batch %d, want 4", ref.SkewBatch())
	}
	if err := ref.Run(200); err != nil {
		t.Fatal(err)
	}
	refCycles, refCSV, refRecv := finish(ref, refCons)

	// Checkpointed run: identical, with the engine attached.
	sim2, cons2, parts2 := build()
	var snaps []*chkpt.Snapshot
	var snapCycles []int64
	eng := &chkpt.Engine{
		Interval:  7,
		Path:      filepath.Join(t.TempDir(), "skew.ckpt"),
		Quiesced:  sim2.Binder.Idle,
		SafeCycle: sim2.FullSync,
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
	if len(snaps) == 0 {
		t.Fatal("no checkpoint captured")
	}
	// The first capture lands at the first quiesced full sync past the
	// interval: cycle 15 (hook cycles are 3,7,11,15,...; the pipes
	// drain by cycle 13). sim.Cycle() inside the hook is already
	// last+1 = 16.
	if snapCycles[0] != 16 {
		t.Errorf("first capture at cycle %d, want 16", snapCycles[0])
	}
	if !sim2.FullSync(snapCycles[0] - 1) {
		t.Errorf("capture cycle %d is not a full-sync boundary", snapCycles[0]-1)
	}
	// The engine must not have perturbed the run.
	c2, csv2, recv2 := finish(sim2, cons2)
	if c2 != refCycles || !bytes.Equal(csv2, refCSV) {
		t.Fatalf("checkpointed run diverged: %d cycles vs %d", c2, refCycles)
	}
	for i := range refRecv {
		if len(recv2[i]) != len(refRecv[i]) {
			t.Fatalf("consumer %d: checkpointed run received %d values, reference %d",
				i, len(recv2[i]), len(refRecv[i]))
		}
	}

	// Restore from the first snapshot (through the wire codec) and run
	// to completion.
	var buf bytes.Buffer
	if err := snaps[0].Encode(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := chkpt.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sim3, cons3, parts3 := build()
	if err := chkpt.Restore(snap, parts3, false); err != nil {
		t.Fatal(err)
	}
	if sim3.Cycle() != snapCycles[0] {
		t.Fatalf("restored at cycle %d, want %d", sim3.Cycle(), snapCycles[0])
	}
	if err := sim3.Run(200); err != nil {
		t.Fatal(err)
	}
	c3, csv3, recv3 := finish(sim3, cons3)
	if c3 != refCycles {
		t.Errorf("restored run stopped at %d cycles, reference %d", c3, refCycles)
	}
	if !bytes.Equal(csv3, refCSV) {
		t.Errorf("restored run's stats CSV differs from the uninterrupted run")
	}
	for i := range refRecv {
		if len(recv3[i]) != len(refRecv[i]) {
			t.Fatalf("consumer %d: restored %d values, reference %d", i, len(recv3[i]), len(refRecv[i]))
		}
		for j := range refRecv[i] {
			if recv3[i][j] != refRecv[i][j] {
				t.Fatalf("consumer %d: restored delivery differs at %d", i, j)
			}
		}
	}
}
