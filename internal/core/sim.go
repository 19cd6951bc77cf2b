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

// One clock loop. A Run clocks the boxes on the goroutine that called
// it, in registration order; the only other goroutine is the context
// watcher, which touches nothing but the stopped flag and has exited
// when RunContext returns. Every signal has latency >= 1, so a cycle's
// reads never observe that cycle's writes and the order boxes are
// clocked in within a cycle cannot change a result.
// State outside the signal model that one box writes and another reads
// goes through a Publication, folded at the end of the cycle: the same
// one-cycle visibility a wire of latency 1 has. The end of a cycle is
// what the rest of the tree calls the barrier: publications folded,
// hooks run, statistics sampled, checkpoints captured.
//
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
//	(b) the end of the cycle folding a Publication it reads — released
//	    credits arriving in one of its output flows wake a producer that
//	    was blocked on credit alone.
//	(c) BoxBase.Wake from a box that calls it directly. A box the walk
//	    has still to reach in this cycle's word — registered after the
//	    waker — is clocked in this cycle, as the every-box loop would
//	    clock it after the change; any other is clocked from the next.
//	    (A signal write wakes for the next cycle only: its object
//	    arrives no sooner.)
//	(d) the cycle it named to BoxBase.ParkUntil: a wait whose end the
//	    box already knows (a busy memory channel) is a park with a time,
//	    kept in one min-heap the loop consults before each cycle's walk.
//
// A stalled box sleeps too. A counter named to ParkCounting accrues
// from the cycle after the park was granted: Counter.Value adds its
// rate times the cycles gone by, read off the simulator's cycle
// register, which the end of the cycle advances before anything samples
// a statistic — so the interval CSV, the summary, a checkpoint's stats
// section and every BoxInfo.Busy reader see at each barrier the number
// the skipped Clocks would have written, with no timer and no credit
// paid late. The loop folds the sum into the counter before the box's next
// Clock, and the end of a Run folds what is still accruing. The accrual
// starts only with a granted park: one refused for an input in flight
// leaves the box awake to count for itself next cycle.
//
// A box that cannot name its wake source in some state — it polls
// shared state nobody announces, or waits out a number of cycles it
// does not park for (an instruction's latency, the display refresh) —
// stays awake in that state.
//
// A spurious clock of a parked box is harmless, so every Run (a
// restored one included) starts with all boxes awake and park state is
// never serialized, and an installed ClockGate — whose decisions are
// keyed by (cycle, box) — keeps every box awake and no counter accruing.
// A missed wake is a bug; the watchdog's report says which boxes were
// parked since when, counting what (DeadlockReport).

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
	sim    *Simulator // the simulator clocking this box; nil outside Run
	idx    int        // the box's bit in sim.awake
	parked bool
	inputs []*Signal // the wires this box consumes
	// counting holds what the Clock in progress named to ParkCounting,
	// and, once the park is granted, what accrues until the next Clock.
	counting []accrual
	parkedAt int64 // cycle of the Clock that last parked the box
	// wakeAt is the cycle named to ParkUntil by the Clock in progress
	// and, once the park is granted, the timed wake it sleeps towards;
	// 0 for none.
	wakeAt int64
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
	if b.sim != nil {
		b.sim.parking = true
	}
}

// ParkCounting is Park for a state in which every further Clock would
// also add perCycle to c (a stall counter, one per blocked cycle): c
// accrues at that rate from the next cycle until the box is clocked
// again, if the park is granted. Call it once per such counter, each
// counter at most once in a Clock.
func (b *BoxBase) ParkCounting(c *Counter, perCycle int) {
	if b.sim == nil {
		return
	}
	b.sim.parking = true
	if perCycle != 0 {
		b.counting = append(b.counting, accrual{c, float64(perCycle)})
	}
}

// ParkUntil is Park for a wait whose end the box knows: if the park is
// granted, the box is clocked again at cycle c at the latest (combine
// with ParkCounting for what it counts meanwhile). Call it at most once
// in a Clock, with c after the cycle being clocked.
func (b *BoxBase) ParkUntil(c int64) {
	if b.sim != nil {
		b.sim.parking = true
		b.wakeAt = c
	}
}

// Wake puts a parked box back in the awake set. A box the walk has
// still to reach in this cycle — later in the 64-box word being walked,
// or in a later word — is clocked in this cycle, its accrual settled
// first; any other from the next. Waking a nil box does nothing.
func (b *BoxBase) Wake() {
	if b == nil || b.sim == nil {
		return
	}
	s := b.sim
	w, bit := b.idx>>6, uint64(1)<<(b.idx&63)
	// The lowest bit left in the walk is the box being clocked.
	if w == s.walkW && bit > s.walk&-s.walk && s.walk&bit == 0 {
		if s.accruing[w]&bit != 0 {
			s.settle(b.idx, s.cycle)
		}
		s.walk |= bit
	}
	b.wake()
}

// wake puts a parked box back in the awake set for the next word the
// walk loads: the next cycle's, for a box in the word being walked.
func (b *BoxBase) wake() {
	if b.parked {
		b.parked, b.wakeAt = false, 0
		b.sim.awake[b.idx>>6] |= 1 << (b.idx & 63)
	}
}

// EndCycleFunc runs after boxes have been clocked. Hooks registered
// with OnEndCycle run at the end of every cycle, in registration order,
// after the publications have folded and after the statistics interval
// sample (a boundary cycle's row is recorded before any hook sees the
// cycle): quiesce snapshots taken, trace buffers drained, checkpoints
// captured.
type EndCycleFunc func(cycle int64)

// Publication is state outside the signal model that one box writes
// during a cycle and another reads from the next cycle on: released
// flow credits, a unit's idle flag the command processor polls. The
// writer calls Mark on a cycle it changed the state; the end of the
// cycle then runs the fold that makes the change visible, and wakes the
// reader. Unmarked publications cost nothing; folds of one cycle touch
// disjoint state, so their order is immaterial.
type Publication struct {
	fold   EndCycleFunc
	reader string
	sim    *Simulator
	wakes  *BoxBase // reader, when it is a registered box
	marked bool
}

// Publish registers a publication read by box reader ("" when the
// reader never parks on it).
func (s *Simulator) Publish(reader string, fold EndCycleFunc) *Publication {
	p := &Publication{fold: fold, reader: reader, sim: s}
	s.pubs = append(s.pubs, p)
	return p
}

// Mark schedules the fold for the end of this cycle. Call it from the
// writer box's Clock (or anything it calls).
func (p *Publication) Mark() {
	if !p.marked {
		p.marked = true
		p.sim.marked = append(p.sim.marked, p)
	}
}

// Simulator owns the clock loop: a set of boxes, the signal binder,
// the statistics manager, and an object-identifier source shared by
// everything in one simulated GPU.
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
	hooks     []EndCycleFunc
	traced    []*Signal // signals with a tracer, flushed each cycle
	tracedSet bool

	// The clocked state of a Run (see the park contract): bases[i] is
	// boxes[i]'s BoxBase (nil for a Box without one); awake has bit i set
	// while boxes[i] is to be clocked, accruing while it is parked with
	// counters accruing (bases[i].counting), to be folded before its next
	// Clock — accruing & awake is who that is.
	bases    []*BoxBase
	awake    []uint64
	accruing []uint64
	parking  bool // the box being clocked called Park
	// The walk of the cycle in progress: word walkW of the awake set
	// (-1 outside the walk) as loaded, less the boxes already clocked,
	// plus those a Wake picked up on the way.
	walk  uint64
	walkW int
	// wakeups holds the granted ParkUntil wakes, a min-heap on cycle. An
	// entry whose box was woken before it, or parked again towards
	// another cycle, is stale and dropped when it comes up. A Run starts
	// it on wakeBuf: the benchmark scenes never hold more than five, so a
	// Run allocates nothing for them.
	wakeups []wakeup
	wakeBuf [8]wakeup

	pubs   []*Publication // every registered publication
	marked []*Publication // marked this cycle, folded at its end

	// The watchdog's fingerprint, kept as it moves (see activity): every
	// wire's traffic (Signal.prodTally, consTally), every Progress counter
	// and every box's Steps.
	produced, consumed, progress uint64
	steps                        []*int

	wd     *watchdog
	crash  *CrashReport
	flight func(max int) []FlightEvent // crash flight-recorder source

	// Host-time attribution (SetClockObserver): on cycles where
	// cycle%obsEvery == 0 every box clock is individually timed and
	// reported. Nil obs (the default) costs one branch per cycle.
	obs      ClockObserver
	obsEvery int64

	// Fault injection (SetClockGate): consulted before every box
	// clock. Nil (the default) costs one branch per box per cycle.
	gate ClockGate

	// Cooperative cancellation: Stop (or a context watcher) raises
	// stopped; the clock loop polls it once per cycle. The atomic is
	// the only state another goroutine touches — the cancellation cause
	// is derived from the context itself when the loop stops, so the
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
	}
}

// Register adds a box to the clock loop in registration order.
func (s *Simulator) Register(b Box) { s.boxes = append(s.boxes, b) }

// Boxes returns the registered boxes in registration order. The slice
// is a copy; the boxes are shared — read their state only at the end of
// a cycle (an OnEndCycle hook) or outside Run.
func (s *Simulator) Boxes() []Box { return append([]Box(nil), s.boxes...) }

// BarrierBoxName names the pseudo-box the parallel clock loop, now
// gone, reported its barrier wait under. No code path reports it; the
// benchmark's box classes still name it (ROADMAP item 7 retires it).
const BarrierBoxName = "(barrier)"

// ClockObserver receives sampled host-time measurements of individual
// box clocks (see SetClockObserver).
type ClockObserver interface {
	// BoxClocked reports that box's Clock call took hostNs wall-clock
	// nanoseconds.
	BoxClocked(box Box, hostNs int64)
}

// SetClockObserver installs an observer that times every box's Clock
// call on cycles where cycle%sampleEvery == 0 (sampleEvery <= 1 times
// every cycle). Pass nil to remove the observer (the default). A
// sampled cycle costs two monotonic clock reads per box; unsampled
// cycles pay one branch. Observation never changes simulation results.
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
// pass through (return true). Deterministic injectors precompute their
// decisions from (cycle, box) only, so while a gate is installed Park
// is ignored and every box is clocked every cycle. Gating is invisible
// when nil (the default).
type ClockGate interface {
	BeforeClock(cycle int64, box Box) bool
}

// SetClockGate installs a fault-injection gate (nil removes it).
func (s *Simulator) SetClockGate(g ClockGate) { s.gate = g }

// WatchdogProgress reports the armed watchdog's view of forward
// progress: the last cycle with observed activity and the cumulative
// activity fingerprint (total signal traffic plus every Progress
// counter and position register). ok is false when no watchdog is armed.
// Call from an OnEndCycle hook, or outside Run.
func (s *Simulator) WatchdogProgress() (lastProgress int64, fingerprint uint64, ok bool) {
	if s.wd == nil {
		return 0, 0, false
	}
	return s.wd.lastProgress, s.wd.lastTotal, true
}

// SetDone installs the termination predicate checked at the end of
// every cycle (typically "command processor has retired all
// commands").
func (s *Simulator) SetDone(done func() bool) { s.done = done }

// SetWorkers once chose the parallel clock loop; it is gone, and n is
// ignored. Kept for the benchmark's idle kernel (ROADMAP item 7).
func (s *Simulator) SetWorkers(n int) {}

// SetWatchdog arms the progress watchdog: if no signal traffic, no
// Progress counter and no box's Steps change for window consecutive
// cycles, Run aborts with a *DeadlockError carrying a structured report
// instead of spinning to the cycle budget. Pass 0 to disable (the default).
// The watchdog runs at the end of the cycle and does not perturb timing.
func (s *Simulator) SetWatchdog(window int64) {
	if window <= 0 {
		s.wd = nil
		return
	}
	s.wd = &watchdog{window: window}
}

// Stop requests cooperative cancellation: the clock loop returns an
// ErrCanceled-wrapping error before it starts the next cycle, with all
// statistics and traces produced so far flushed. Safe to call from
// any goroutine (e.g. a signal handler).
func (s *Simulator) Stop() { s.stopped.Store(true) }

// OnEndCycle registers a hook to run at the end of every cycle, in
// registration order.
func (s *Simulator) OnEndCycle(fn EndCycleFunc) { s.hooks = append(s.hooks, fn) }

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
			quit, exited := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(exited)
				select {
				case <-ctx.Done():
					s.stopped.Store(true)
				case <-quit:
				}
			}()
			// The watcher is gone when RunContext returns.
			defer func() {
				close(quit)
				<-exited
			}()
		}
	}
	if s.wd != nil {
		s.wd.reset(s)
	}
	err := s.run(maxCycles)
	s.endParks()
	// A failing cycle stops before its end: drain whatever trace entries
	// its boxes produced so the trace shows the violation.
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

// run is the clock loop: clock the awake boxes, then end the cycle.
func (s *Simulator) run(maxCycles int64) (err error) {
	defer func() {
		// Panics at the end of the cycle (hooks, the done predicate) get
		// the same black-box treatment as box panics.
		if r := recover(); r != nil {
			err = panicError(r, "", s.cycle)
		}
	}()
	s.wire()
	limit := s.cycle + maxCycles
	for s.cycle < limit {
		cycle := s.cycle
		if s.shouldStop(cycle) {
			return s.stopErr()
		}
		if err := s.clock(cycle); err != nil {
			return err
		}
		if stop, err := s.endOfCycle(cycle); stop {
			return err
		}
	}
	return fmt.Errorf("%w after %d cycles", ErrCycleLimit, maxCycles)
}

// panicError turns a recovered panic into the Run error: a *SimError
// as itself, anything else a *CrashError naming box ("" outside a box
// clock). Called while unwinding, so the stack still shows the
// panicking frames.
func panicError(r any, box string, cycle int64) error {
	if se, ok := r.(*SimError); ok {
		return se
	}
	return &CrashError{Box: box, Cycle: cycle, Value: r, Stack: debug.Stack()}
}

// clock clocks the awake boxes through cycle c, in registration order:
// sampled and not, gated and not.
func (s *Simulator) clock(c int64) (err error) {
	var cur Box
	defer func() {
		s.walkW = -1
		if r := recover(); r != nil {
			err = panicError(r, boxNameOf(cur), c)
		}
	}()
	// The timed wakes due: each box is put in the awake set before its
	// word is loaded, so it is clocked at exactly the cycle it named.
	for len(s.wakeups) > 0 && s.wakeups[0].cycle <= c {
		t := s.popWakeup()
		if base := s.bases[t.box]; base.parked && base.wakeAt == t.cycle {
			base.wake()
		}
	}
	timed := s.obs != nil && c%s.obsEvery == 0
	for w := range s.awake {
		// A box woken after its word is loaded is clocked next cycle,
		// which is early enough for a signal write — its object arrives
		// no sooner — but not for a direct Wake, which adds the box to
		// the walk if the walk has not passed it (BoxBase.Wake).
		s.walk, s.walkW = s.awake[w], w
		// The sleepers among them wake up to settled counters. (Under a
		// gate nothing accrues, so none of these is skipped below.)
		for woken := s.accruing[w] & s.walk; woken != 0; woken &= woken - 1 {
			s.settle(w<<6+bits.TrailingZeros64(woken), c)
		}
		for ; s.walk != 0; s.walk &= s.walk - 1 {
			i := w<<6 + bits.TrailingZeros64(s.walk)
			cur = s.boxes[i]
			if s.gate != nil && !s.gate.BeforeClock(c, cur) {
				continue
			}
			if timed {
				t0 := time.Now()
				cur.Clock(c)
				s.obs.BoxClocked(cur, time.Since(t0).Nanoseconds())
			} else {
				cur.Clock(c)
			}
			if s.parking {
				s.parking = false
				s.parkAfter(i, c)
			}
		}
	}
	return nil
}

// endOfCycle runs after every box has clocked the cycle: watchdog,
// publication fold, stats, hooks, traces, termination check. It returns
// (true, err) when the run loop should return err.
func (s *Simulator) endOfCycle(cycle int64) (bool, error) {
	// Advance the counter before the hooks run: a checkpoint captured in
	// a hook must record the next cycle to execute, not re-execute this
	// one on resume. Hooks still observe cycle as their argument. The
	// watchdog check also precedes the hooks so the captured watchdog
	// fingerprint is the end-of-cycle state — a restored run continues
	// the progress tracking exactly where the uninterrupted run left it —
	// and so does the interval sample, so a capture on a boundary cycle
	// holds that cycle's row.
	s.cycle = cycle + 1
	var rep *DeadlockReport
	if s.wd != nil {
		rep = s.wd.check(s, cycle)
	}
	s.fold(cycle)
	s.Stats.Tick(cycle)
	s.runHooks(cycle)
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
// at the end of every cycle, with the statistics tick between the fold
// and the hooks; only test harnesses that clock boxes manually
// (outside Run) need to call it themselves.
func (s *Simulator) EndCycle(cycle int64) {
	s.fold(cycle)
	s.runHooks(cycle)
}

// fold folds the publications marked this cycle and wakes their readers.
func (s *Simulator) fold(cycle int64) {
	for i, p := range s.marked {
		p.marked = false
		p.fold(cycle)
		if p.wakes != nil {
			p.wakes.wake()
		}
		s.marked[i] = nil
	}
	s.marked = s.marked[:0]
}

// runHooks runs the end-of-cycle hooks and drains signal trace buffers.
func (s *Simulator) runHooks(cycle int64) {
	for _, fn := range s.hooks {
		fn(cycle)
	}
	s.flushTraces()
}

// refreshTraced caches the traced-signal list. Sorted by signal name
// (Binder.Signals order), so the drained trace is deterministic
// regardless of clocking order.
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

// park takes box i out of the awake set, and reports it did, unless one
// of its inputs has something in flight.
func (s *Simulator) park(i int) bool {
	base := s.bases[i] // never nil: only a BoxBase can have asked
	for _, in := range base.inputs {
		if in.Pending() {
			return false
		}
	}
	s.awake[i>>6] &^= 1 << (i & 63)
	base.parked = true
	return true
}

// parkAfter settles what box i's Clock of cycle c asked for: the park,
// and with a granted one its timed wake and the accrual of the counters
// it named, from cycle c+1 on — the Clock itself counted c. A refused
// park (or any, under a gate) leaves the box awake to count for itself.
func (s *Simulator) parkAfter(i int, c int64) {
	base := s.bases[i]
	if s.gate != nil || !s.park(i) {
		base.counting = base.counting[:0]
		base.wakeAt = 0
		return
	}
	base.parkedAt = c
	if base.wakeAt != 0 {
		s.pushWakeup(wakeup{base.wakeAt, i})
	}
	if len(base.counting) == 0 {
		return
	}
	for _, a := range base.counting {
		a.c.rate, a.c.since, a.c.now = a.perCycle, c+1, &s.cycle
	}
	s.accruing[i>>6] |= 1 << (i & 63)
}

// settle ends box i's accrual before it is clocked at cycle c (or with
// the Run, c the cycle it would next have run): the skipped cycles
// fold into the counters.
func (s *Simulator) settle(i int, c int64) {
	base := s.bases[i]
	for _, a := range base.counting {
		a.c.settle(c)
	}
	base.counting = base.counting[:0]
	s.accruing[i>>6] &^= 1 << (i & 63)
}

// endParks ends the park state of a Run with it: what still accrues is
// folded through the last cycle clocked, and no box keeps a simulator
// to park in, so a later Run (or a harness clocking by hand) starts from
// plain counters and boxes that are all awake.
func (s *Simulator) endParks() {
	for i, base := range s.bases {
		if base == nil {
			continue
		}
		if s.accruing[i>>6]&(1<<(i&63)) != 0 {
			s.settle(i, s.cycle)
		}
		base.parked, base.wakeAt = false, 0
		base.sim = nil
	}
	s.wakeups = s.wakeups[:0]
}

// wakeup is a granted ParkUntil: box is to be clocked at cycle. The
// heap is kept by hand: container/heap would allocate for every entry
// pushed through its interface.
type wakeup struct {
	cycle int64
	box   int
}

func (s *Simulator) pushWakeup(t wakeup) {
	h := append(s.wakeups, t)
	for j := len(h) - 1; j > 0; {
		up := (j - 1) / 2
		if h[up].cycle <= h[j].cycle {
			break
		}
		h[up], h[j] = h[j], h[up]
		j = up
	}
	s.wakeups = h
}

func (s *Simulator) popWakeup() wakeup {
	h := s.wakeups
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for j := 0; ; {
		k := 2*j + 1
		if k >= n {
			break
		}
		if k+1 < n && h[k+1].cycle < h[k].cycle {
			k++
		}
		if h[j].cycle <= h[k].cycle {
			break
		}
		h[j], h[k] = h[k], h[j]
		j = k
	}
	s.wakeups = h
	return top
}

// wire resolves, for the Run about to start, what is bound by name or
// by box: each box's BoxBase, all of them awake; each signal's consumer
// box (woken by writes, and the wires a parking box must find empty;
// Binder.Own names the box behind a wire end registered under another
// name) and the tallies its traffic counts into; every Progress
// counter's tally and each box's Steps; and each publication's reader
// box.
//
// The tallies start from what their wires and counters have counted so
// far, so that they always add up to what those say themselves.
func (s *Simulator) wire() {
	n := len(s.boxes)
	s.bases = make([]*BoxBase, n)
	s.awake = make([]uint64, (n+63)/64)
	s.accruing = make([]uint64, len(s.awake))
	s.parking = false // a Run that failed in a Clock may have left it set
	s.walkW = -1
	s.wakeups = s.wakeBuf[:0]
	byName := make(map[string]*BoxBase)
	s.produced, s.consumed, s.progress = 0, 0, 0
	s.steps = s.steps[:0]
	for _, p := range s.Stats.progress {
		p.tally = &s.progress
		s.progress += uint64(p.v)
	}
	for i, b := range s.boxes {
		s.awake[i>>6] |= 1 << (i & 63)
		if bb, ok := b.(interface{ boxBase() *BoxBase }); ok {
			base := bb.boxBase()
			base.sim, base.idx, base.parked, base.wakeAt = s, i, false, 0
			base.inputs = base.inputs[:0]
			s.bases[i] = base
			byName[b.BoxName()] = base
		}
		s.steps = append(s.steps, InfoOf(b).Steps...)
	}
	for _, sig := range s.Binder.order {
		sig.reader = byName[s.Binder.boxOf(s.Binder.consumers[sig.name])]
		if sig.reader != nil {
			sig.reader.inputs = append(sig.reader.inputs, sig)
		}
		sig.prodTally, sig.consTally = &s.produced, &s.consumed
		s.produced += sig.produced
		s.consumed += sig.consumed
	}
	for _, p := range s.pubs {
		p.wakes = byName[p.reader]
	}
}

// activity returns the three sums of the watchdog's fingerprint: the
// objects written to and read from all wires so far, and the Progress
// counters plus the boxes' Steps — what summing Signal.Traffic over the
// Binder and the terms over the boxes gives — from the tallies and the
// position registers. For the end of a cycle of a Run.
func (s *Simulator) activity() (prod, cons, silent uint64) {
	silent = s.progress
	for _, p := range s.steps {
		silent += uint64(*p)
	}
	return s.produced, s.consumed, silent
}
