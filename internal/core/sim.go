package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Box is a timing module. Clock is called exactly once per simulated
// cycle; a box reads its input signals, updates local state (queues,
// registers), calls its emulator library for any rendering
// computation, and writes its output signals.
type Box interface {
	BoxName() string
	Clock(cycle int64)
}

// BoxBase provides the name plumbing shared by all boxes; embed it
// and call Init in the box constructor.
type BoxBase struct {
	name string
}

// Init sets the box name.
func (b *BoxBase) Init(name string) { b.name = name }

// BoxName implements Box.
func (b *BoxBase) BoxName() string { return b.name }

// EndCycleFunc runs after boxes have been clocked and before
// statistics are sampled. Hooks registered with OnEndCycle run on the
// coordinating goroutine at every full-sync boundary, in registration
// order, in both serial and parallel mode: they are the barrier at
// which cross-shard state is published (quiesce snapshots taken,
// trace buffers drained, checkpoints captured). Hooks registered with
// OnLocalCycle additionally run once per simulated cycle even inside
// a skew batch, on the shard that owns their anchor boxes.
type EndCycleFunc func(cycle int64)

// hookEntry is one registered end-of-cycle hook. Global hooks (local
// == false) run at full syncs on the coordinator. Local hooks run
// every simulated cycle: merged into the global sequence when the
// skew batch is 1 (exactly the historical behavior), or on the shard
// owning their anchor boxes when shards free-run.
type hookEntry struct {
	fn      EndCycleFunc
	local   bool
	anchors []string // box names owning the hook's state (local only)
}

// Simulator owns the clock loop: a set of boxes, the signal binder,
// the statistics manager, and an object-identifier source shared by
// everything in one simulated GPU.
//
// By default all boxes are clocked serially from one goroutine. With
// SetWorkers(n > 1), boxes are partitioned into shards that are
// clocked concurrently and synchronized on a sense-reversing spin
// barrier. Because every signal has latency >= 1 (a cycle's reads
// never observe that cycle's writes) and all non-signal cross-box
// state is only touched at sync boundaries, parallel runs are
// bit-identical to serial runs. Boxes that share mutable state
// directly (method calls, shared counters) must be kept on one shard
// with Pin; cross-box dependencies outside the signal model are
// declared with ConstrainSkew.
//
// With EnableSkewBatching, shards additionally free-run for B cycles
// between full syncs, where B is the minimum latency of any signal or
// constraint edge crossing pin-unit boundaries — the paper's
// observation that a wire with latency L needs cross-shard
// synchronization only every L cycles. B is derived from the box/pin
// topology alone, so serial and parallel runs batch identically and
// stay bit-identical.
//
// Run failures are classified into typed errors — ErrCycleLimit,
// ErrDeadlock, ErrPanic, ErrCanceled, *SimError — and every abnormal
// outcome except plain budget exhaustion leaves a black-box
// CrashReport behind (see Crash).
type Simulator struct {
	Binder *Binder
	Stats  *StatManager
	IDs    IDSource

	boxes     []Box
	cycle     int64
	done      func() bool
	workers   int
	pinGroup  map[Box]string
	hooks     []hookEntry
	traced    []*Signal // signals with a tracer, flushed each cycle
	tracedSet bool

	// Skew batching (EnableSkewBatching): skew is the batch length B
	// computed at Run start; syncCycle is the last cycle of the batch
	// currently being finalized, so FullSync can recognize a partial
	// final batch. serialLocals caches the local hooks for the serial
	// loop. constraints are the ConstrainSkew edges.
	skewOn       bool
	skewLimit    int
	skew         int
	syncCycle    int64
	serialLocals []EndCycleFunc
	constraints  []skewEdge

	// Profile-guided sharding: boxCosts seeds the bin-packing
	// partition (SetBoxCosts); reshardAt arms the one-shot warm-up
	// re-shard (SetAutoReshard).
	boxCosts  map[string]float64
	reshardAt int64

	wd     *watchdog
	crash  *CrashReport
	flight func(max int) []FlightEvent // crash flight-recorder source

	// Host-time attribution (SetClockObserver): on cycles where
	// cycle%obsEvery == 0 every box clock is individually timed and
	// reported. Nil obs (the default) costs one branch per shard per
	// cycle and nothing else.
	obs      ClockObserver
	obsEvery int64

	// Fault injection (SetClockGate): consulted before every box
	// clock. Nil (the default) costs one branch per box per cycle.
	gate ClockGate

	// Cooperative cancellation: Stop (or a context watcher) raises
	// stopped; the clock loop polls it once per batch. The atomic is
	// the only cross-goroutine state — the cancellation cause is
	// derived from the context itself when the loop stops, so the
	// watcher goroutine never writes a plain field the loop might be
	// writing too. The loop additionally polls the context directly
	// every ctxPollMask+1 cycles, bounding cancellation latency in
	// cycles even when the watcher goroutine is slow to schedule.
	stopped atomic.Bool
	runCtx  context.Context
	ctxDone <-chan struct{}

	curBox Box // serial mode: box being clocked, for panic attribution
}

// NewSimulator creates a simulator with the given statistics sampling
// interval (0 disables interval sampling).
func NewSimulator(statInterval int64) *Simulator {
	return &Simulator{
		Binder:    NewBinder(),
		Stats:     NewStatManager(statInterval),
		skewLimit: defaultSkewLimit,
		syncCycle: -1,
	}
}

// Register adds a box to the clock loop in registration order.
func (s *Simulator) Register(b Box) { s.boxes = append(s.boxes, b) }

// Boxes returns the registered boxes in registration order. The slice
// is a copy; the boxes are shared — read their state only at the
// cycle barrier (an OnEndCycle hook) or outside Run.
func (s *Simulator) Boxes() []Box { return append([]Box(nil), s.boxes...) }

// ClockObserver receives sampled host-time measurements of individual
// box clocks (see SetClockObserver). In parallel mode BoxClocked is
// called concurrently from different shards; implementations must be
// safe for that. The coordinator additionally reports its barrier
// wait under the BarrierBoxName pseudo-box, so sync cost never skews
// the per-box attribution.
type ClockObserver interface {
	// BoxClocked reports that box's Clock call on the given shard took
	// hostNs wall-clock nanoseconds.
	BoxClocked(shard int, box Box, hostNs int64)
}

// SetClockObserver installs an observer that times every box's Clock
// call on cycles where cycle%sampleEvery == 0 (sampleEvery <= 1 times
// every cycle). Pass nil to remove the observer (the default). A
// sampled cycle costs two monotonic clock reads per box; unsampled
// cycles pay one branch per shard. Observation never changes
// simulation results.
func (s *Simulator) SetClockObserver(o ClockObserver, sampleEvery int64) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	s.obs = o
	s.obsEvery = sampleEvery
}

// ClockGate intercepts box clocks for fault injection (the chaos
// engine): BeforeClock runs immediately before each box's Clock call
// and may skip the clock (return false — a stalled box), panic (an
// injected crash, attributed to the gated box like any box panic), or
// pass through (return true). In parallel mode BeforeClock is called
// concurrently from different shards and must be safe for that;
// deterministic injectors precompute their decisions from (cycle,
// box) only. Gating is invisible when nil (the default).
type ClockGate interface {
	BeforeClock(cycle int64, box Box) bool
}

// SetClockGate installs a fault-injection gate (nil removes it).
func (s *Simulator) SetClockGate(g ClockGate) { s.gate = g }

// WatchdogProgress reports the armed watchdog's view of forward
// progress: the last cycle with observed activity and the cumulative
// activity fingerprint (total signal traffic plus every
// ProgressReporter counter). ok is false when no watchdog is armed.
// The state is barrier-published: call only from the coordinating
// goroutine (an OnEndCycle hook, or outside Run).
func (s *Simulator) WatchdogProgress() (lastProgress int64, fingerprint uint64, ok bool) {
	if s.wd == nil {
		return 0, 0, false
	}
	return s.wd.lastProgress, s.wd.lastTotal, true
}

// SetDone installs the termination predicate checked at every full
// sync (typically "command processor has retired all commands"). The
// predicate runs at the sync boundary, never concurrently with box
// clocks.
func (s *Simulator) SetDone(done func() bool) { s.done = done }

// SetWorkers selects the execution mode: 0 or 1 clocks all boxes
// serially (the default), n > 1 clocks box shards on n goroutines,
// and -1 auto-sizes to the schedulable processors. The effective
// count is clamped to runtime.GOMAXPROCS(0) and to the number of
// shardable units (see EffectiveWorkers); results are identical in
// every mode.
func (s *Simulator) SetWorkers(n int) {
	if n < -1 {
		n = -1
	}
	s.workers = n
}

// Workers returns the configured worker count (0 or 1 means serial,
// -1 auto-sizes). See EffectiveWorkers for the clamped value a Run
// will actually use.
func (s *Simulator) Workers() int { return s.workers }

// EffectiveWorkers returns the shard count Run will use right now:
// the configured worker count resolved against GOMAXPROCS and the
// shardable unit count (0 or 1 means serial).
func (s *Simulator) EffectiveWorkers() int { return s.resolveWorkers() }

// SetWatchdog arms the progress watchdog: if no signal traffic and no
// ProgressReporter counter changes for window consecutive cycles, Run
// aborts with a *DeadlockError carrying a structured report instead
// of spinning to the cycle budget. Pass 0 to disable (the default).
// The watchdog runs at full syncs and does not perturb timing.
func (s *Simulator) SetWatchdog(window int64) {
	if window <= 0 {
		s.wd = nil
		return
	}
	s.wd = &watchdog{window: window}
}

// Stop requests cooperative cancellation: the clock loop returns an
// ErrCanceled-wrapping error at the next sync boundary, with all
// statistics and traces produced so far flushed. Safe to call from
// any goroutine (e.g. a signal handler).
func (s *Simulator) Stop() { s.stopped.Store(true) }

// Pin assigns boxes to a named affinity group: all boxes pinned to
// the same group are clocked on the same worker, in registration
// order relative to each other. Pin boxes that share mutable state
// outside the signal model (direct method calls, a shared batch
// descriptor); unpinned boxes may each be clocked on any worker.
func (s *Simulator) Pin(group string, boxes ...Box) {
	if s.pinGroup == nil {
		s.pinGroup = make(map[Box]string)
	}
	for _, b := range boxes {
		s.pinGroup[b] = group
	}
}

// OnEndCycle registers a hook to run at every full-sync boundary, on
// the coordinating goroutine, in registration order.
func (s *Simulator) OnEndCycle(fn EndCycleFunc) {
	s.hooks = append(s.hooks, hookEntry{fn: fn})
}

// OnLocalCycle registers a hook that must run once per simulated
// cycle — flow-credit folds and other state owned by specific boxes.
// Without skew batching it behaves exactly like OnEndCycle (merged
// into the global hook sequence in registration order). When skew
// batching splits the run into free-running batches, the hook runs on
// the shard owning the anchor boxes at the end of every simulated
// cycle; all anchors must land on one shard, which the partition
// guarantees for boxes connected by latency-1 dependencies (their
// ConstrainSkew edge forces batch length 1 across units).
func (s *Simulator) OnLocalCycle(fn EndCycleFunc, anchors ...string) {
	s.hooks = append(s.hooks, hookEntry{fn: fn, local: true, anchors: anchors})
}

// ConstrainSkew declares a cross-box dependency outside the signal
// model: state produced by (or about) box a is observed by box b no
// earlier than lat cycles later. The skew computation treats it like
// a signal of that latency between the two boxes' pin units — a
// latency-1 edge (flow credit release, barrier-published quiesce
// flags) forces full syncs every cycle whenever the two boxes can
// land on different shards.
func (s *Simulator) ConstrainSkew(a, b string, lat int) {
	if lat < 1 {
		lat = 1
	}
	s.constraints = append(s.constraints, skewEdge{a: a, b: b, lat: lat})
}

// EnableSkewBatching lets shards free-run between full syncs for up
// to the computed latency bound (see SkewBatch), capped at limit
// (<= 0 selects the default cap of 64 cycles). Off by default: the
// batch length is then 1 and every cycle is a full sync, the
// historical behavior. Batching never changes simulation results —
// the batch length is derived from the pin topology, identically in
// serial and parallel mode — but it does coarsen full-sync
// consumers: the watchdog, the metrics bus and the checkpoint engine
// observe the run every B cycles.
func (s *Simulator) EnableSkewBatching(limit int) {
	if limit <= 0 {
		limit = defaultSkewLimit
	}
	s.skewOn = true
	s.skewLimit = limit
}

// SkewBatch returns the skew batch length B the current topology
// yields: 1 unless EnableSkewBatching is on and every cross-unit
// dependency has latency >= 2.
func (s *Simulator) SkewBatch() int {
	if s.skew > 0 {
		return s.skew
	}
	return s.computeSkew()
}

// FullSync reports whether the given cycle is a full-sync boundary of
// the current run — a cycle at which global hooks run and the whole
// machine state is barrier-published. Checkpoint engines use it to
// refuse captures at skewed cycles. Every cycle is a full sync when
// skew batching is off or the computed batch is 1.
func (s *Simulator) FullSync(cycle int64) bool {
	if s.skew <= 1 {
		return true
	}
	if cycle == s.syncCycle {
		return true // partial final batch ends at the cycle limit
	}
	return (cycle+1)%int64(s.skew) == 0
}

// SetBoxCosts seeds the partition's cost model: estimated relative
// host cost per Clock call, keyed by box name (boxes absent from the
// map count as 1). The partition packs pin units onto shards by
// summed cost. Pass nil to restore uniform costs.
func (s *Simulator) SetBoxCosts(costs map[string]float64) { s.boxCosts = costs }

// SetAutoReshard arms the warm-up re-shard of parallel runs: after
// warmupCycles, the next full sync re-partitions the boxes using
// measured per-box host time — from the attached ClockObserver when
// it implements BoxCoster (the obsv profiler does), else from a
// temporary sampling collector installed just for the warm-up — and
// the run continues on the rebalanced shards. Results are unchanged
// by construction: any partition is bit-identical. Pass 0 to disable
// (the default).
func (s *Simulator) SetAutoReshard(warmupCycles int64) {
	if warmupCycles < 0 {
		warmupCycles = 0
	}
	s.reshardAt = warmupCycles
}

// Cycle returns the current simulation cycle.
func (s *Simulator) Cycle() int64 { return s.cycle }

// ErrCycleLimit is returned by Run when the cycle budget is exhausted
// before the termination predicate fires.
var ErrCycleLimit = errors.New("core: cycle limit reached")

// Run clocks all boxes until the done predicate reports true or
// maxCycles elapse. Equivalent to RunContext with a background
// context.
func (s *Simulator) Run(maxCycles int64) error {
	return s.RunContext(context.Background(), maxCycles)
}

// RunContext clocks all boxes until the done predicate reports true,
// maxCycles elapse, the context is canceled, or a failure occurs.
//
// Failures are returned as typed errors, never raised as panics:
// model violations (signal bandwidth, lost data) as *SimError, box
// panics as *CrashError (errors.Is ErrPanic), watchdog deadlocks as
// *DeadlockError (errors.Is ErrDeadlock), cancellation as an
// ErrCanceled-wrapping error, and budget exhaustion as an
// ErrCycleLimit-wrapping error. On every path — including failures —
// the statistics rows and signal-trace entries produced so far are
// flushed, so a partial run still yields its outputs; abnormal
// failures additionally record a black-box CrashReport (see Crash).
func (s *Simulator) RunContext(ctx context.Context, maxCycles int64) error {
	if err := s.Binder.Validate(); err != nil {
		return err
	}
	if s.done == nil {
		return errors.New("core: no termination predicate installed")
	}
	s.refreshTraced()
	s.crash = nil
	s.stopped.Store(false)
	s.runCtx = nil
	s.ctxDone = nil
	if ctx != nil && ctx.Done() != nil {
		s.runCtx = ctx
		s.ctxDone = ctx.Done()
		if ctx.Err() != nil {
			// Already canceled: fail deterministically before the
			// first cycle instead of racing the watcher goroutine.
			s.stopped.Store(true)
		} else {
			quit := make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					s.stopped.Store(true)
				case <-quit:
				}
			}()
			defer close(quit)
		}
	}
	if s.wd != nil {
		s.wd.reset(s)
	}
	s.skew = s.computeSkew()
	s.syncCycle = -1
	s.serialLocals = s.serialLocals[:0]
	if s.skew > 1 {
		for _, h := range s.hooks {
			if h.local {
				s.serialLocals = append(s.serialLocals, h.fn)
			}
		}
		s.growCrossUnitRings()
	}
	var err error
	if nw := s.resolveWorkers(); nw > 1 {
		err = s.runParallel(maxCycles, nw)
	} else {
		err = s.runSerial(maxCycles)
	}
	// A failing cycle stops before its barrier: drain whatever trace
	// entries its boxes produced so the trace shows the violation.
	s.flushTraces()
	s.Stats.Flush(s.cycle)
	s.crash = s.buildCrashReport(err)
	return err
}

// growCrossUnitRings widens the ring of every signal crossing
// pin-unit boundaries to maxLat+B slots: with shards free-running B
// cycles apart, a reader up to B-1 cycles behind the writer must
// still find every in-flight arrival in its own slot. Ring growth
// only re-places in-flight objects by arrival stamp; normal-path
// behavior is unchanged (the slot arithmetic stays cycle mod len).
// Every cross-unit signal is grown — not just cross-shard ones — so a
// warm-up re-shard never needs to touch rings mid-run.
func (s *Simulator) growCrossUnitRings() {
	unitOf := make(map[string]int)
	for i, u := range s.pinUnits() {
		for _, b := range u.boxes {
			unitOf[b.BoxName()] = i
		}
	}
	for name, sig := range s.Binder.signals {
		pu, pok := unitOf[s.Binder.producers[name]]
		cu, cok := unitOf[s.Binder.consumers[name]]
		if pok && cok && pu == cu {
			continue
		}
		sig.growRing(sig.maxLat + s.skew)
	}
}

// ctxPollMask: the loop does a non-blocking poll of the run context
// every 1024 cycles, so cancellation latency is bounded in simulated
// cycles (the watcher goroutine bounds it in wall time).
const ctxPollMask = 1<<10 - 1

// shouldStop is the per-batch cancellation check at the top of both
// run loops.
func (s *Simulator) shouldStop(cycle int64) bool {
	if s.stopped.Load() {
		return true
	}
	if s.ctxDone != nil && cycle&ctxPollMask < int64(s.skewOrOne()) {
		select {
		case <-s.ctxDone:
			s.stopped.Store(true)
			return true
		default:
		}
	}
	return false
}

func (s *Simulator) skewOrOne() int {
	if s.skew > 1 {
		return s.skew
	}
	return 1
}

// stopErr builds the cancellation error, folding in the context
// cause when the run context was canceled (a bare Stop has none).
func (s *Simulator) stopErr() error {
	if s.runCtx != nil {
		if cause := context.Cause(s.runCtx); cause != nil {
			return fmt.Errorf("%w at cycle %d: %v", ErrCanceled, s.cycle, cause)
		}
	}
	return fmt.Errorf("%w at cycle %d", ErrCanceled, s.cycle)
}

// endOfBatch runs the shared full-sync tail after the batch of cycles
// [first, last] has been clocked: watchdog, barrier hooks, stats,
// termination check. With skew batching off, first == last and this
// is exactly the historical per-cycle barrier. It returns (true, err)
// when the run loop should return err.
func (s *Simulator) endOfBatch(first, last int64) (bool, error) {
	// Advance the counter before the barrier hooks run: a checkpoint
	// captured in a hook must record the next cycle to execute, not
	// re-execute the batch on resume. Hooks still observe last as
	// their argument. The watchdog check also precedes the hooks so
	// the captured watchdog fingerprint is the post-barrier state — a
	// restored run continues the progress tracking exactly where the
	// uninterrupted run left it.
	s.cycle = last + 1
	s.syncCycle = last
	var rep *DeadlockReport
	if s.wd != nil {
		rep = s.wd.check(s, last)
	}
	for _, h := range s.hooks {
		if h.local && s.skew > 1 {
			continue // already ran per cycle on its owning shard
		}
		h.fn(last)
	}
	s.flushTraces()
	s.Stats.TickBatch(first, last)
	if s.done() {
		return true, nil
	}
	if rep != nil {
		return true, &DeadlockError{Report: rep}
	}
	return false, nil
}

// EndCycle runs the end-of-cycle hooks (global and local, in
// registration order) and drains signal trace buffers. Run calls the
// equivalent automatically at every full sync; only test harnesses
// that clock boxes manually (outside Run) need to call it themselves.
func (s *Simulator) EndCycle(cycle int64) {
	for _, h := range s.hooks {
		h.fn(cycle)
	}
	s.flushTraces()
}

// batchEnd returns one past the last cycle of the batch starting at
// first: batches are aligned to absolute multiples of the batch
// length (so checkpoint-restored runs re-batch identically) and
// clipped to the cycle limit.
func (s *Simulator) batchEnd(first, limit int64) int64 {
	b := int64(s.skew)
	if b <= 1 {
		return first + 1
	}
	end := first - first%b + b
	if end > limit {
		end = limit
	}
	return end
}

// refreshTraced caches the traced-signal list. Sorted by signal name
// (Binder.Signals order), so the drained trace is deterministic
// regardless of worker count or clocking order.
func (s *Simulator) refreshTraced() {
	s.traced = s.traced[:0]
	for _, sig := range s.Binder.Signals() {
		if sig.tracer != nil {
			s.traced = append(s.traced, sig)
		}
	}
	s.tracedSet = true
}

func (s *Simulator) flushTraces() {
	if !s.tracedSet {
		// Manual harness clocking boxes outside Run: resolve the
		// traced set on first use.
		s.refreshTraced()
	}
	for _, sig := range s.traced {
		sig.flushTrace()
	}
}

func boxNameOf(b Box) string {
	if b == nil {
		return ""
	}
	return b.BoxName()
}

func (s *Simulator) runSerial(maxCycles int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*SimError); ok {
				err = se
				return
			}
			err = &CrashError{
				Box: boxNameOf(s.curBox), Cycle: s.cycle,
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	limit := s.cycle + maxCycles
	for s.cycle < limit {
		if s.shouldStop(s.cycle) {
			return s.stopErr()
		}
		first := s.cycle
		last := s.batchEnd(first, limit) - 1
		for c := first; c <= last; c++ {
			s.cycle = c
			if s.obs != nil && c%s.obsEvery == 0 {
				for _, b := range s.boxes {
					s.curBox = b
					if s.gate != nil && !s.gate.BeforeClock(c, b) {
						continue
					}
					t0 := time.Now()
					b.Clock(c)
					s.obs.BoxClocked(0, b, time.Since(t0).Nanoseconds())
				}
			} else {
				for _, b := range s.boxes {
					s.curBox = b
					if s.gate != nil && !s.gate.BeforeClock(c, b) {
						continue
					}
					b.Clock(c)
				}
			}
			s.curBox = nil
			if s.skew > 1 {
				for _, fn := range s.serialLocals {
					fn(c)
				}
			}
		}
		if stop, err := s.endOfBatch(first, last); stop {
			return err
		}
	}
	return fmt.Errorf("%w after %d cycles", ErrCycleLimit, maxCycles)
}

// worker is one member of the persistent pool: it owns a shard of
// boxes (and the local hooks anchored there) and rendezvouses with
// its peers on the shared spin barrier twice per batch.
type worker struct {
	shard    int
	boxes    []Box
	locals   []EndCycleFunc // local hooks anchored on this shard
	skew     int
	obs      ClockObserver // sampled box-clock timing, nil when off
	obsEvery int64
	gate     ClockGate // fault injection, nil when off
	// Failure state, written before the join barrier and read by the
	// coordinator after it (the barrier orders both).
	simErr   *SimError
	crash    *CrashError
	curCycle int64
}

// clockBatch clocks the shard through cycles [first, last]. A failing
// box parks the shard at the join barrier like any other; the
// coordinator inspects the recorded failure after the rendezvous.
func (w *worker) clockBatch(first, last int64) {
	var cur Box
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*SimError); ok {
				w.simErr = se
				return
			}
			// Wrap the raw panic with box and cycle context so a
			// parallel-mode crash names the failing box like serial
			// mode does, and capture the stack here: it still shows
			// the panicking frames during unwinding.
			w.crash = &CrashError{
				Box: boxNameOf(cur), Shard: w.shard, Cycle: w.curCycle,
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	for c := first; c <= last; c++ {
		w.curCycle = c
		if w.obs != nil && c%w.obsEvery == 0 {
			for _, b := range w.boxes {
				cur = b
				if w.gate != nil && !w.gate.BeforeClock(c, b) {
					continue
				}
				t0 := time.Now()
				b.Clock(c)
				w.obs.BoxClocked(w.shard, b, time.Since(t0).Nanoseconds())
			}
		} else {
			for _, b := range w.boxes {
				cur = b
				if w.gate != nil && !w.gate.BeforeClock(c, b) {
					continue
				}
				b.Clock(c)
			}
		}
		cur = nil
		if w.skew > 1 {
			for _, fn := range w.locals {
				fn(c)
			}
		}
	}
}

// localHooksByShard distributes the local hooks over the shard plan:
// each hook lands on the shard owning its anchor boxes. Only needed
// when shards free-run (skew > 1); with batch length 1 local hooks
// run in the global sequence instead. An anchor set spanning shards
// is a wiring error — latency-1-coupled boxes must share a pin unit.
func (s *Simulator) localHooksByShard(shards [][]Box) ([][]EndCycleFunc, error) {
	locals := make([][]EndCycleFunc, len(shards))
	if s.skew <= 1 {
		return locals, nil
	}
	shardOf := make(map[string]int)
	for i, sh := range shards {
		for _, b := range sh {
			shardOf[b.BoxName()] = i
		}
	}
	for _, h := range s.hooks {
		if !h.local {
			continue
		}
		target := -1
		for _, a := range h.anchors {
			w, ok := shardOf[a]
			if !ok {
				return nil, fmt.Errorf("core: local hook anchor %q is not a registered box", a)
			}
			if target < 0 {
				target = w
			} else if w != target {
				return nil, fmt.Errorf("core: local hook anchors %v span shards under skew batching; pin them together", h.anchors)
			}
		}
		if target < 0 {
			target = 0 // no anchors: coordinator shard
		}
		locals[target] = append(locals[target], h.fn)
	}
	return locals, nil
}

// barrierBox is the pseudo-box the coordinator's join-barrier wait is
// attributed to (see BarrierBoxName).
var barrierBox = pseudoBox{name: BarrierBoxName}

// parState is the coordinator-to-worker mailbox of the parallel loop:
// plain fields published by the release barrier (written only while
// every worker is blocked in it) and read by workers after it opens.
type parState struct {
	first, last int64
	stop        bool
}

func (s *Simulator) runParallel(maxCycles int64, nw int) (err error) {
	defer func() {
		// Coordinator-side panics (end-of-cycle hooks, the done
		// predicate) get the same black-box treatment as box panics.
		if r := recover(); r != nil {
			if se, ok := r.(*SimError); ok {
				err = se
				return
			}
			err = &CrashError{Cycle: s.cycle, Value: r, Stack: debug.Stack()}
		}
	}()

	// Warm-up cost measurement for the auto re-shard: use the attached
	// observer when it can already cost boxes, otherwise install a
	// temporary sampling collector (restored below).
	var collector *costCollector
	coster, _ := s.obs.(BoxCoster)
	if s.reshardAt > 0 && coster == nil && s.obs == nil {
		collector = newCostCollector()
		prevObs, prevEvery := s.obs, s.obsEvery
		s.obs, s.obsEvery = collector, collectorSample
		coster = collector
		defer func() { s.obs, s.obsEvery = prevObs, prevEvery }()
	}

	shards := s.partition(nw)
	locals, lerr := s.localHooksByShard(shards)
	if lerr != nil {
		return lerr
	}
	workers := make([]*worker, len(shards))
	for i, shard := range shards {
		workers[i] = &worker{
			shard: i, boxes: shard, locals: locals[i], skew: s.skew,
			obs: s.obs, obsEvery: s.obsEvery, gate: s.gate,
		}
	}
	// Shard 0 runs inline on the coordinating goroutine — it would
	// otherwise sleep through the whole batch — so only shards 1..n-1
	// get pool goroutines. The one barrier object serves both
	// rendezvous: release (coordinator has published the next batch in
	// ps) and join (every shard finished clocking it).
	bar := newSpinBarrier(nw)
	ps := &parState{}
	for _, w := range workers[1:] {
		go func(w *worker) {
			for {
				bar.await() // release: ps is published
				if ps.stop {
					return
				}
				w.clockBatch(ps.first, ps.last)
				bar.await() // join: failures recorded, state readable
			}
		}(w)
	}
	// The coordinator always exits between a join and the next
	// release, where every pool worker is blocked in the release
	// rendezvous: raising stop and joining it once releases them all
	// into their return path.
	defer func() {
		ps.stop = true
		bar.await()
	}()

	resharded := s.reshardAt <= 0
	limit := s.cycle + maxCycles
	for s.cycle < limit {
		if s.shouldStop(s.cycle) {
			return s.stopErr()
		}
		first := s.cycle
		last := s.batchEnd(first, limit) - 1
		ps.first, ps.last = first, last
		bar.await() // release the batch
		workers[0].clockBatch(first, last)
		// Join, attributing the coordinator's wait to the barrier
		// pseudo-box on sampled batches so sync cost never pollutes
		// the per-box host-time table that drives sharding.
		if s.obs != nil && first%s.obsEvery == 0 {
			t0 := time.Now()
			bar.await()
			s.obs.BoxClocked(0, barrierBox, time.Since(t0).Nanoseconds())
		} else {
			bar.await()
		}
		// Several shards may fail in the same batch; report the lowest
		// worker index for a deterministic error. Programming errors
		// (panics) outrank model violations.
		for _, w := range workers {
			if w.crash != nil {
				return w.crash
			}
		}
		for _, w := range workers {
			if w.simErr != nil {
				return w.simErr
			}
		}
		if stop, err := s.endOfBatch(first, last); stop {
			return err
		}
		if !resharded && s.cycle >= s.reshardAt && coster != nil {
			// Warm-up re-shard: every pool worker is parked in the
			// release rendezvous, so reassigning shard contents here is
			// ordered by the next barrier. Any partition yields
			// bit-identical results; only host time changes.
			resharded = true
			costs := coster.BoxCosts()
			newShards := partitionUnits(s.pinUnits(), nw, costs)
			newLocals, lerr := s.localHooksByShard(newShards)
			if lerr == nil {
				for i, w := range workers {
					w.boxes = newShards[i]
					w.locals = newLocals[i]
				}
			}
			if collector != nil {
				// Sampling did its job; drop the collector's overhead
				// for the rest of the run.
				s.obs, s.obsEvery = nil, 1
				for _, w := range workers {
					w.obs, w.obsEvery = nil, 1
				}
			}
		}
	}
	return fmt.Errorf("%w after %d cycles", ErrCycleLimit, maxCycles)
}
