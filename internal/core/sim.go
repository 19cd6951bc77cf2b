package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Who gets clocked. The paper's loop clocks every box every cycle; this
// one clocks the boxes that are awake. A box may end a Clock by parking
// (BoxBase.Park, BoxBase.ParkCounting), and is then skipped until
// something wakes it.
//
// The park contract: a box parks only in a state where every further
// Clock would change nothing — no field, gauge maximum, signal or
// shared batch state — except add a fixed amount to the counters it
// names to ParkCounting, until one of the wake sources it can name
// fires:
//
//	(a) a Write on one of its input wires. Each signal's consumer box is
//	    resolved from the Binder when a Run starts (through Binder.Own
//	    for a wire bound under the name of something the box clocks, a
//	    cache's memory port); the write wakes it at write time, not
//	    arrival time, so the simulator keeps a parking box awake while
//	    any of its inputs has something in flight (Pending).
//	(b) the barrier folding a Publication it reads — released credits
//	    arriving in one of its output flows wake a producer that was
//	    blocked on credit alone.
//	(c) BoxBase.Wake from a box that calls it directly (same pin group).
//
// A stalled box sleeps too. A counter named to ParkCounting accrues
// from the cycle after the park was granted: Counter.Value adds its
// rate times the cycles gone by, read off the simulator's cycle
// register, which the barrier advances before anything samples a
// statistic — so the interval CSV, the summary, a checkpoint's stats
// section and every BusyCycles reader see at each barrier the number the
// skipped Clocks would have written, with no timer and no credit paid
// late. The shard folds the sum into the counter before the box's next
// Clock, and the end of a Run folds what is still accruing. The accrual
// starts only with a granted park: one refused for an input in flight
// leaves the box awake to count for itself next cycle.
//
// A box that cannot name its wake source in some state — it polls
// shared state or waits out a number of cycles (a busy memory channel,
// an instruction's latency, the display refresh) — stays awake in that
// state.
//
// Two consequences hold by construction. A spurious clock of a parked
// box is harmless: so every Run (a restored one included) starts with
// all boxes awake and park state is never serialized, an installed
// ClockGate — whose decisions are keyed by (cycle, box) — keeps every
// box awake and no counter accruing, and a cross-shard wake that races
// the consumer's loop may be seen this cycle or the next (the object it
// announces arrives no earlier than that). A missed wake is a bug:
// across shards parking is the classic lost-wake-up pattern, and
// shard.park and Signal.WriteLat hold the two halves of the protocol
// that rules it out; the watchdog's report says which boxes were parked
// since when, counting what (DeadlockReport).

// Box is a timing module. Clock is called once per simulated cycle
// while the box is awake (always, for a box that never parks); a box
// reads its input signals, updates local state (queues, registers),
// calls its emulator library for any rendering computation, and writes
// its output signals.
type Box interface {
	BoxName() string
	Clock(cycle int64)
}

// BoxBase provides the name plumbing and the park state shared by all
// boxes; embed it and call Init in the box constructor.
type BoxBase struct {
	name string

	// Park state, valid during a Run (see the park contract above).
	sh     *shard // the shard clocking this box; nil outside Run
	idx    int    // the box's bit in sh.awake
	parked atomic.Bool
	inputs []*Signal // the wires this box consumes
	// counting holds what the Clock in progress named to ParkCounting,
	// and, once the park is granted, what accrues until the next Clock.
	counting []accrual
	parkedAt int64 // cycle of the Clock that last parked the box
}

// accrual is one counter a parked box would have added perCycle to on
// every Clock it is spared.
type accrual struct {
	c        *Counter
	perCycle float64
}

// Init sets the box name.
func (b *BoxBase) Init(name string) { b.name = name }

// BoxName implements Box.
func (b *BoxBase) BoxName() string { return b.name }

func (b *BoxBase) boxBase() *BoxBase { return b }

// Park asks the simulator to stop clocking the box once the Clock in
// progress returns. Call it only from the box's own Clock, and only in
// a state the park contract allows. The box still stays awake while one
// of its input wires has an object in flight.
func (b *BoxBase) Park() {
	if b.sh != nil {
		b.sh.parking = true
	}
}

// ParkCounting is Park for a state in which every further Clock would
// also add perCycle to c (a stall counter, one per blocked cycle): c
// accrues at that rate from the next cycle until the box is clocked
// again, if the park is granted. Call it once per such counter, each
// counter at most once in a Clock.
func (b *BoxBase) ParkCounting(c *Counter, perCycle int) {
	if b.sh == nil {
		return
	}
	b.sh.parking = true
	if perCycle != 0 {
		b.counting = append(b.counting, accrual{c, float64(perCycle)})
	}
}

// Wake puts a parked box back in its shard's awake set, to be clocked
// from the next cycle on (possibly this one). Safe from any goroutine.
func (b *BoxBase) Wake() {
	if b.parked.Load() && b.parked.CompareAndSwap(true, false) {
		b.sh.setAwake(b.idx, true)
	}
}

// EndCycleFunc runs after boxes have been clocked and before
// statistics are sampled. Hooks registered with OnEndCycle run on the
// coordinating goroutine at the end of every cycle, in registration
// order, in both serial and parallel mode: they are the barrier at
// which cross-shard state is published (quiesce snapshots taken,
// trace buffers drained, checkpoints captured).
type EndCycleFunc func(cycle int64)

// Publication is state outside the signal model that one box writes
// during a cycle and another reads from the next cycle on: released
// flow credits, a unit's idle flag polled from another shard. The
// writer calls Mark on a cycle it changed the state; the barrier then
// runs the fold that makes the change visible, and wakes the reader.
// Unmarked publications cost nothing; folds of one cycle touch disjoint
// state, so their order is immaterial.
type Publication struct {
	fold           EndCycleFunc
	writer, reader string
	list           *[]*Publication // the writer's shard's publish list
	wakes          *BoxBase        // reader, when it is a registered box
	marked         bool
}

// Publish registers a publication written by box writer and read by
// box reader ("" when the reader never parks on it).
func (s *Simulator) Publish(writer, reader string, fold EndCycleFunc) *Publication {
	p := &Publication{fold: fold, writer: writer, reader: reader, list: &s.shards[0].pubs}
	s.pubs = append(s.pubs, p)
	return p
}

// Mark schedules the fold for this cycle's barrier. Call it from the
// writer box's Clock (or anything it calls).
func (p *Publication) Mark() {
	if !p.marked {
		p.marked = true
		*p.list = append(*p.list, p)
	}
}

// Simulator owns the clock loop: a set of boxes, the signal binder,
// the statistics manager, and an object-identifier source shared by
// everything in one simulated GPU.
//
// By default all boxes are clocked serially from one goroutine. With
// SetWorkers(n > 1), boxes are partitioned once per Run into shards
// that are clocked concurrently and meet on a sense-reversing spin
// barrier at the end of every cycle. Because every signal has latency
// >= 1 (a cycle's reads never observe that cycle's writes) and all
// non-signal cross-box state is only touched at that barrier, parallel
// runs are bit-identical to serial runs. Boxes that share mutable state
// directly (method calls, shared counters) must be kept on one shard
// with Pin; state one box writes and a box of another shard reads goes
// through a Publication.
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
	hooks     []EndCycleFunc
	traced    []*Signal // signals with a tracer, flushed each cycle
	tracedSet bool

	// shards are the clocked partitions of the current (or last) Run, one
	// in serial mode; before any Run an empty one holds the publish list.
	shards []*shard
	pubs   []*Publication // every registered publication
	// What no shard tallies (see activity): the wire ends whose
	// producer, or consumer, is no registered box, and the reporters'
	// position registers.
	walkProd, walkCons []*Signal
	steps              []*int

	// boxCosts seeds the bin-packing partition (SetBoxCosts).
	boxCosts map[string]float64

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
	// stopped; the clock loop polls it once per cycle. The atomic is
	// the only cross-goroutine state — the cancellation cause is
	// derived from the context itself when the loop stops, so the
	// watcher goroutine never writes a plain field the loop might be
	// writing too. The loop additionally polls the context directly
	// every ctxPollMask+1 cycles, bounding cancellation latency in
	// cycles even when the watcher goroutine is slow to schedule.
	stopped atomic.Bool
	runCtx  context.Context
	ctxDone <-chan struct{}
}

// NewSimulator creates a simulator with the given statistics sampling
// interval (0 disables interval sampling).
func NewSimulator(statInterval int64) *Simulator {
	return &Simulator{
		Binder: NewBinder(),
		Stats:  NewStatManager(statInterval),
		shards: []*shard{{}},
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
// box) only, so while a gate is installed Park is ignored and every
// box is clocked every cycle. Gating is invisible when nil (the default).
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

// SetDone installs the termination predicate checked at the end of
// every cycle (typically "command processor has retired all
// commands"). The predicate runs at the cycle barrier, never
// concurrently with box clocks.
func (s *Simulator) SetDone(done func() bool) { s.done = done }

// SetWorkers selects the execution mode: n <= 1 clocks all boxes
// serially (the default), n > 1 clocks box shards on n goroutines. The
// effective count is clamped to runtime.GOMAXPROCS(0) and to the
// number of shardable units (see EffectiveWorkers); results are
// identical in every mode.
func (s *Simulator) SetWorkers(n int) { s.workers = max(n, 0) }

// Workers returns the configured worker count (0 or 1 means serial).
// See EffectiveWorkers for the clamped value a Run will actually use.
func (s *Simulator) Workers() int { return s.workers }

// EffectiveWorkers returns the shard count Run will use right now:
// the configured worker count resolved against GOMAXPROCS and the
// shardable unit count (0 or 1 means serial).
func (s *Simulator) EffectiveWorkers() int { return s.resolveWorkers() }

// SetWatchdog arms the progress watchdog: if no signal traffic and no
// ProgressReporter counter changes for window consecutive cycles, Run
// aborts with a *DeadlockError carrying a structured report instead
// of spinning to the cycle budget. Pass 0 to disable (the default).
// The watchdog runs at the cycle barrier and does not perturb timing.
func (s *Simulator) SetWatchdog(window int64) {
	if window <= 0 {
		s.wd = nil
		return
	}
	s.wd = &watchdog{window: window}
}

// Stop requests cooperative cancellation: the clock loop returns an
// ErrCanceled-wrapping error at the next cycle barrier, with all
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

// OnEndCycle registers a hook to run at the end of every cycle, on the
// coordinating goroutine, in registration order.
func (s *Simulator) OnEndCycle(fn EndCycleFunc) { s.hooks = append(s.hooks, fn) }

// SetBoxCosts seeds the partition's cost model: estimated relative
// host cost per Clock call, keyed by box name (boxes absent from the
// map count as 1). The partition packs pin units onto shards by
// summed cost. Pass nil to restore uniform costs.
func (s *Simulator) SetBoxCosts(costs map[string]float64) { s.boxCosts = costs }

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
	err := s.run(maxCycles, max(s.resolveWorkers(), 1))
	s.endParks()
	// A failing cycle stops before its barrier: drain whatever trace
	// entries its boxes produced so the trace shows the violation.
	s.flushTraces()
	s.Stats.Flush(s.cycle)
	s.crash = s.buildCrashReport(err)
	return err
}

// ctxPollMask: the loop does a non-blocking poll of the run context
// every 1024 cycles, so cancellation latency is bounded in simulated
// cycles (the watcher goroutine bounds it in wall time).
const ctxPollMask = 1<<10 - 1

// shouldStop is the per-cycle cancellation check at the top of the run
// loop.
func (s *Simulator) shouldStop(cycle int64) bool {
	if s.stopped.Load() {
		return true
	}
	if s.ctxDone != nil && cycle&ctxPollMask == 0 {
		select {
		case <-s.ctxDone:
			s.stopped.Store(true)
			return true
		default:
		}
	}
	return false
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

// endOfCycle is the barrier's tail on the coordinator, after every
// shard has clocked the cycle: watchdog, publication fold, hooks,
// traces, stats, termination check. It returns (true, err) when the
// run loop should return err.
func (s *Simulator) endOfCycle(cycle int64) (bool, error) {
	// Advance the counter before the barrier hooks run: a checkpoint
	// captured in a hook must record the next cycle to execute, not
	// re-execute this one on resume. Hooks still observe cycle as
	// their argument. The watchdog check also precedes the hooks so
	// the captured watchdog fingerprint is the post-barrier state — a
	// restored run continues the progress tracking exactly where the
	// uninterrupted run left it.
	s.cycle = cycle + 1
	var rep *DeadlockReport
	if s.wd != nil {
		rep = s.wd.check(s, cycle)
	}
	s.EndCycle(cycle)
	s.Stats.Tick(cycle)
	if s.done() {
		return true, nil
	}
	if rep != nil {
		return true, &DeadlockError{Report: rep}
	}
	return false, nil
}

// EndCycle folds the marked publications, runs the end-of-cycle hooks
// in registration order and drains signal trace buffers. Run does it
// at the end of every cycle; only test harnesses that clock boxes
// manually (outside Run) need to call it themselves.
func (s *Simulator) EndCycle(cycle int64) {
	for _, sh := range s.shards {
		sh.foldPublications(cycle)
	}
	for _, fn := range s.hooks {
		fn(cycle)
	}
	s.flushTraces()
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

// shard is one clocked partition of the machine: every box in serial
// mode, a worker's share in parallel mode. It owns the awake set its
// boxes park in and the publish list they mark.
type shard struct {
	id    int
	boxes []Box      // registration order: pinned boxes call each other directly
	bases []*BoxBase // bases[i] is boxes[i]'s BoxBase; nil for a Box without one
	// awake has bit i set while boxes[i] is to be clocked. Cleared by
	// the shard itself when a box parks, set by Wake from any goroutine.
	awake []atomic.Uint64
	// accruing has bit i set while boxes[i] is parked with counters
	// accruing (bases[i].counting), to be folded before its next Clock:
	// accruing & awake is who that is. Plain: the shard's goroutine alone
	// touches it during a Run.
	accruing []uint64
	now      *int64         // the simulator's cycle register, which accruing counters read
	parking  bool           // the box being clocked called Park
	pubs     []*Publication // marked this cycle, folded at the barrier
	// produced and consumed total the traffic of every wire this shard's
	// boxes write and read (Signal.prodTally, consTally), progress every
	// Progress counter of theirs. Plain: bumped by the shard's goroutine,
	// read by the coordinator past the barrier.
	produced, consumed, progress uint64

	obs      ClockObserver // sampled box-clock timing, nil when off
	obsEvery int64
	gate     ClockGate // fault injection, nil when off
	// Failure state, written before the join barrier and read by the
	// coordinator after it (the barrier orders both).
	simErr *SimError
	crash  *CrashError
}

// setBoxes makes the shard clock exactly boxes, all of them awake.
func (sh *shard) setBoxes(boxes []Box) {
	sh.boxes = boxes
	sh.bases = make([]*BoxBase, len(boxes))
	sh.awake = make([]atomic.Uint64, (len(boxes)+63)/64)
	sh.accruing = make([]uint64, len(sh.awake))
	for i, b := range boxes {
		if bb, ok := b.(interface{ boxBase() *BoxBase }); ok {
			base := bb.boxBase()
			base.sh, base.idx = sh, i
			base.parked.Store(false)
			sh.bases[i] = base
		}
		sh.setAwake(i, true)
	}
}

// setAwake sets or clears box i's bit in the awake set. A CAS loop
// rather than atomic Or/And, which the module's Go version predates.
func (sh *shard) setAwake(i int, on bool) {
	w, bit := &sh.awake[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		next := old | bit
		if !on {
			next = old &^ bit
		}
		if next == old || w.CompareAndSwap(old, next) {
			return
		}
	}
}

// park takes box i out of the awake set, and reports it did, unless one
// of its inputs has something in flight. The order is the lost-wake-up
// protocol of the park contract: leave the set, publish the flag, then
// re-check the inputs; a writer that bumped produced before our
// re-check is seen here, one that bumps it after sees the flag.
// (Checking first and publishing second would lose a write that lands
// in between.)
func (sh *shard) park(i int) bool {
	base := sh.bases[i] // never nil: only a BoxBase can have asked
	for _, in := range base.inputs {
		if in.Pending() {
			return false // the common refusal, before any atomic write
		}
	}
	sh.setAwake(i, false)
	base.parked.Store(true)
	for _, in := range base.inputs {
		if in.Pending() {
			base.Wake()
			return false
		}
	}
	return true
}

// parkAfter settles what box i's Clock of cycle c asked for: the park,
// and with a granted one the accrual of the counters it named, from
// cycle c+1 on — the Clock itself counted c. A refused park (or any,
// under a gate) leaves the box awake to count for itself.
func (sh *shard) parkAfter(i int, c int64) {
	base := sh.bases[i]
	if sh.gate != nil || !sh.park(i) {
		base.counting = base.counting[:0]
		return
	}
	base.parkedAt = c
	if len(base.counting) == 0 {
		return
	}
	for _, a := range base.counting {
		a.c.rate, a.c.since, a.c.now = a.perCycle, c+1, sh.now
	}
	sh.accruing[i>>6] |= 1 << (i & 63)
}

// settle ends box i's accrual before it is clocked at cycle c (or with
// the Run, c the cycle it would next have run): the skipped cycles
// fold into the counters.
func (sh *shard) settle(i int, c int64) {
	base := sh.bases[i]
	for _, a := range base.counting {
		a.c.settle(c)
	}
	base.counting = base.counting[:0]
	sh.accruing[i>>6] &^= 1 << (i & 63)
}

// endParks ends the park state of a Run with it: what still accrues is
// folded through the last cycle clocked, and no box keeps a shard to
// park in, so a later Run (or a harness clocking by hand) starts from
// plain counters and boxes that are all awake.
func (s *Simulator) endParks() {
	for _, sh := range s.shards {
		for i, base := range sh.bases {
			if base == nil {
				continue
			}
			if sh.accruing[i>>6]&(1<<(i&63)) != 0 {
				sh.settle(i, s.cycle)
			}
			base.parked.Store(false)
			base.sh = nil
		}
	}
}

// foldPublications runs on the coordinator while no box is clocked.
func (sh *shard) foldPublications(cycle int64) {
	for i, p := range sh.pubs {
		p.marked = false
		p.fold(cycle)
		if p.wakes != nil {
			p.wakes.Wake()
		}
		sh.pubs[i] = nil
	}
	sh.pubs = sh.pubs[:0]
}

// clock clocks the shard's awake boxes through cycle c, in
// registration order: the one box loop, serial and parallel, sampled
// and not, gated and not. A failing box leaves the shard at the join
// barrier like any other; the coordinator inspects the recorded failure
// after the rendezvous.
func (sh *shard) clock(c int64) {
	var cur Box
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*SimError); ok {
				sh.simErr = se
				return
			}
			// Wrap the raw panic with box and cycle context and capture
			// the stack here: it still shows the panicking frames during
			// unwinding.
			sh.crash = &CrashError{
				Box: boxNameOf(cur), Shard: sh.id, Cycle: c,
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	timed := sh.obs != nil && c%sh.obsEvery == 0
	for w := range sh.awake {
		// A box woken after this load is clocked next cycle, which is
		// early enough: what woke it arrives no sooner.
		word := sh.awake[w].Load()
		// The sleepers among them wake up to settled counters. (Under a
		// gate nothing accrues, so none of these is skipped below.)
		for woken := sh.accruing[w] & word; woken != 0; woken &= woken - 1 {
			sh.settle(w<<6+bits.TrailingZeros64(woken), c)
		}
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			cur = sh.boxes[i]
			if sh.gate != nil && !sh.gate.BeforeClock(c, cur) {
				continue
			}
			if timed {
				t0 := time.Now()
				cur.Clock(c)
				sh.obs.BoxClocked(sh.id, cur, time.Since(t0).Nanoseconds())
			} else {
				cur.Clock(c)
			}
			if sh.parking {
				sh.parking = false
				sh.parkAfter(i, c)
			}
		}
	}
}

// wire resolves, for the shards about to be clocked, what is bound by
// name or by box: each signal's consumer box (woken by writes, and the
// wires a parking box must find empty; Binder.Own names the box behind
// a wire end registered under another name), the shard tallies that its
// two ends and each reporter's counters count into, and each
// publication's writer shard and reader box. Publications marked but
// not yet folded move to their new list. All boxes start awake.
//
// The tallies start from what their wires and counters have counted so
// far, so that they always add up to what those say themselves.
func (s *Simulator) wire(shards []*shard) error {
	s.shards = shards
	byName := make(map[string]*BoxBase)
	shardOf := make(map[string]*shard)
	s.walkProd, s.walkCons, s.steps = s.walkProd[:0], s.walkCons[:0], s.steps[:0]
	for _, sh := range shards {
		sh.pubs = sh.pubs[:0]
		sh.produced, sh.consumed, sh.progress = 0, 0, 0
		for i, b := range sh.boxes {
			shardOf[b.BoxName()] = sh
			if base := sh.bases[i]; base != nil {
				byName[b.BoxName()] = base
				base.inputs = base.inputs[:0]
			}
			if r, ok := b.(ProgressReporter); ok {
				counters, steps := r.ProgressTerms()
				for _, p := range counters {
					p.tally = &sh.progress
					sh.progress += uint64(p.v)
				}
				s.steps = append(s.steps, steps...)
			}
		}
	}
	for _, sig := range s.Binder.order {
		producer := s.Binder.boxOf(s.Binder.producers[sig.name])
		consumer := s.Binder.boxOf(s.Binder.consumers[sig.name])
		sig.reader = byName[consumer]
		if sig.reader != nil {
			sig.reader.inputs = append(sig.reader.inputs, sig)
		}
		sig.prodTally, sig.consTally = nil, nil
		if sh := shardOf[producer]; sh != nil {
			sig.prodTally = &sh.produced
			sh.produced += sig.produced.Load()
		} else {
			s.walkProd = append(s.walkProd, sig)
		}
		if sh := shardOf[consumer]; sh != nil {
			sig.consTally = &sh.consumed
			sh.consumed += sig.consumed.Load()
		} else {
			s.walkCons = append(s.walkCons, sig)
		}
	}
	for _, p := range s.pubs {
		sh, ok := shardOf[p.writer]
		if !ok {
			if len(shards) > 1 {
				return fmt.Errorf("core: publication writer %q is not a registered box", p.writer)
			}
			sh = shards[0]
		}
		p.list, p.wakes = &sh.pubs, byName[p.reader]
		if p.marked {
			sh.pubs = append(sh.pubs, p)
		}
	}
	return nil
}

// activity returns the three sums of the watchdog's fingerprint: the
// objects written to and read from all wires so far, and the reporters'
// progress terms — what summing Signal.Traffic over the Binder and the
// terms over the boxes gives — from the shard tallies and the few terms
// outside them. For the coordinator, at the barrier of a Run.
func (s *Simulator) activity() (prod, cons, silent uint64) {
	for _, sh := range s.shards {
		prod += sh.produced
		cons += sh.consumed
		silent += sh.progress
	}
	for _, sig := range s.walkProd {
		prod += sig.produced.Load()
	}
	for _, sig := range s.walkCons {
		cons += sig.consumed.Load()
	}
	for _, p := range s.steps {
		silent += uint64(*p)
	}
	return prod, cons, silent
}

// barrierBox is the pseudo-box the coordinator's join-barrier wait is
// attributed to (see BarrierBoxName).
var barrierBox = pseudoBox{name: BarrierBoxName}

// parState is the coordinator-to-worker mailbox of the parallel loop:
// plain fields published by the release barrier (written only while
// every worker is blocked in it) and read by workers after it opens.
type parState struct {
	cycle int64
	stop  bool
}

// run is the clock loop over nw shards, built here once and kept for
// the whole Run. Shard 0 is clocked inline on the coordinating
// goroutine — alone, without a barrier, in serial mode — and the others
// on pool goroutines.
func (s *Simulator) run(maxCycles int64, nw int) (err error) {
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

	// Serial mode clocks in plain registration order; a partition
	// groups pinned boxes, which would reorder the object IDs drawn.
	groups := [][]Box{s.boxes}
	if nw > 1 {
		groups = s.partition(nw)
	}
	shards := make([]*shard, len(groups))
	for i, boxes := range groups {
		shards[i] = &shard{id: i, obs: s.obs, obsEvery: s.obsEvery, gate: s.gate, now: &s.cycle}
		shards[i].setBoxes(boxes)
	}
	if err := s.wire(shards); err != nil {
		return err
	}
	// The one barrier object serves both rendezvous: release
	// (coordinator has published the next cycle in ps) and join (every
	// shard finished clocking it).
	var bar *spinBarrier
	ps := &parState{}
	if nw > 1 {
		bar = newSpinBarrier(nw)
		for _, sh := range shards[1:] {
			go func(sh *shard) {
				for {
					bar.await() // release: ps is published
					if ps.stop {
						return
					}
					sh.clock(ps.cycle)
					bar.await() // join: failures recorded, state readable
				}
			}(sh)
		}
		// The coordinator always exits between a join and the next
		// release, where every pool worker is blocked in the release
		// rendezvous: raising stop and joining it once releases them all
		// into their return path.
		defer func() {
			ps.stop = true
			bar.await()
		}()
	}

	limit := s.cycle + maxCycles
	for s.cycle < limit {
		cycle := s.cycle
		if s.shouldStop(cycle) {
			return s.stopErr()
		}
		if bar != nil {
			ps.cycle = cycle
			bar.await() // release the cycle
		}
		shards[0].clock(cycle)
		// Join, attributing the coordinator's wait to the barrier
		// pseudo-box on sampled cycles so sync cost never pollutes the
		// per-box host-time table.
		switch {
		case bar == nil:
		case s.obs != nil && cycle%s.obsEvery == 0:
			t0 := time.Now()
			bar.await()
			s.obs.BoxClocked(0, barrierBox, time.Since(t0).Nanoseconds())
		default:
			bar.await()
		}
		// Several shards may fail in the same cycle; report the lowest
		// shard index for a deterministic error. Programming errors
		// (panics) outrank model violations.
		for _, sh := range shards {
			if sh.crash != nil {
				return sh.crash
			}
		}
		for _, sh := range shards {
			if sh.simErr != nil {
				return sh.simErr
			}
		}
		if stop, err := s.endOfCycle(cycle); stop {
			return err
		}
	}
	return fmt.Errorf("%w after %d cycles", ErrCycleLimit, maxCycles)
}
