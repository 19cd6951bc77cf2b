package core

import (
	"errors"
	"fmt"
	"strings"
)

// BoxInfo is what a box tells the framework about itself: everything
// the watchdog, the deadlock report, the metrics bus and the checkpoint
// gate read of it besides its statistics. Every field is optional.
//
// Forward progress is declared where the counter is registered
// (StatManager.ShadowProgress), not here: Steps names only position
// registers, non-negative integers that only grow while a Run lasts
// and are read in place. Busy counts the cycles the box did useful
// work. Queues snapshots its internal queues and credit pools; Quiet
// reports that it holds no transient state a checkpoint would lose,
// beyond what the global idle predicate already implies. Everything is
// read at the end of the cycle.
type BoxInfo struct {
	Steps  []*int
	Busy   *Counter
	Queues func() []QueueStat
	Quiet  func() bool
}

// Introspector is implemented by a box that describes itself. Each
// reader asks once per machine or Run and keeps what it is told.
type Introspector interface {
	Introspect() BoxInfo
}

// InfoOf returns what b says of itself: the zero BoxInfo when it is no
// Introspector.
func InfoOf(b Box) BoxInfo {
	if in, ok := b.(Introspector); ok {
		return in.Introspect()
	}
	return BoxInfo{}
}

// QueueStat describes one internal queue or credit pool of a box for
// the deadlock report: Occupied items out of Capacity slots. An
// output-flow credit pool reports the credits held downstream, so
// Occupied == Capacity reads as "consumer has absorbed the whole
// queue and released nothing".
type QueueStat struct {
	Name     string `json:"name"`
	Occupied int    `json:"occupied"`
	Capacity int    `json:"capacity"`
}

// SignalState is the deadlock-report snapshot of one signal with
// unconsumed objects.
type SignalState struct {
	Name     string   `json:"name"`
	Produced uint64   `json:"produced"`
	Consumed uint64   `json:"consumed"`
	InFlight []string `json:"inFlight,omitempty"` // "tag#id @arrival" per stuck object
}

// BoxState is the deadlock-report snapshot of one box: its queues and,
// when it was not being clocked, since which Clock it is parked and the
// counters accruing meanwhile — a box parked over an occupied queue,
// beside a wire holding an object for it, is a missed wake.
type BoxState struct {
	Name     string      `json:"name"`
	Queues   []QueueStat `json:"queues"`
	Parked   bool        `json:"parked,omitempty"`
	ParkedAt int64       `json:"parkedAt,omitempty"`
	Accruing []string    `json:"accruing,omitempty"`
}

// ActivitySample records one cycle of signal traffic, for the
// trailing activity window of the deadlock report.
type ActivitySample struct {
	Cycle    int64  `json:"cycle"`
	Produced uint64 `json:"produced"` // objects written this cycle
	Consumed uint64 `json:"consumed"` // objects read this cycle
}

// DeadlockReport is the structured diagnosis the watchdog produces
// when no box makes forward progress for a full window: which signals
// hold unconsumed objects, what every stalled box's queues and credit
// pools look like, and the trailing per-cycle traffic so the moment
// activity died is visible.
type DeadlockReport struct {
	Cycle  int64            `json:"cycle"`  // cycle the watchdog fired
	Since  int64            `json:"since"`  // last cycle with observed progress
	Window int64            `json:"window"` // configured no-progress window
	Signal []SignalState    `json:"signals,omitempty"`
	Boxes  []BoxState       `json:"boxes,omitempty"`
	Recent []ActivitySample `json:"recent,omitempty"`
}

// String renders the report for humans, one finding per line.
func (r *DeadlockReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "deadlock: no forward progress for %d cycles (last progress at cycle %d, aborted at %d)\n",
		r.Cycle-r.Since, r.Since, r.Cycle)
	if len(r.Signal) > 0 {
		sb.WriteString("signals with unconsumed objects:\n")
		for _, s := range r.Signal {
			fmt.Fprintf(&sb, "  %-32s produced=%d consumed=%d stuck=%d",
				s.Name, s.Produced, s.Consumed, s.Produced-s.Consumed)
			if len(s.InFlight) > 0 {
				fmt.Fprintf(&sb, "  [%s]", strings.Join(s.InFlight, " "))
			}
			sb.WriteByte('\n')
		}
	}
	if len(r.Boxes) > 0 {
		sb.WriteString("stalled box queues and credit pools:\n")
		for _, b := range r.Boxes {
			fmt.Fprintf(&sb, "  %s", b.Name)
			if b.Parked {
				fmt.Fprintf(&sb, "  (parked since cycle %d", b.ParkedAt)
				if len(b.Accruing) > 0 {
					fmt.Fprintf(&sb, ", counting %s", strings.Join(b.Accruing, " "))
				}
				sb.WriteByte(')')
			}
			sb.WriteByte('\n')
			for _, q := range b.Queues {
				if q.Capacity > 0 {
					fmt.Fprintf(&sb, "    %-32s %d/%d\n", q.Name, q.Occupied, q.Capacity)
				} else {
					// Capacity <= 0: unbounded or unknown.
					fmt.Fprintf(&sb, "    %-32s %d\n", q.Name, q.Occupied)
				}
			}
		}
	}
	if n := len(r.Recent); n > 0 {
		first, last := r.Recent[0], r.Recent[n-1]
		fmt.Fprintf(&sb, "trailing traffic (cycles %d..%d): ", first.Cycle, last.Cycle)
		for i, a := range r.Recent {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d/%d", a.Produced, a.Consumed)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ErrDeadlock matches (via errors.Is) the error Run returns when the
// progress watchdog fires.
var ErrDeadlock = errors.New("core: pipeline deadlock")

// DeadlockError carries the watchdog's structured report out of Run.
type DeadlockError struct {
	Report *DeadlockReport
}

// Error implements error; the full report is in Report.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: pipeline deadlock: no forward progress between cycles %d and %d (window %d)",
		e.Report.Since, e.Report.Cycle, e.Report.Window)
}

// Unwrap makes errors.Is(err, ErrDeadlock) true.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// recentWindow is how many trailing cycles of traffic the report
// keeps.
const recentWindow = 32

// watchdog tracks per-cycle forward progress: total signal traffic
// plus every Progress counter and every box's Steps. It runs at the end
// of every cycle.
//
// Every term of the fingerprint is an integer that never decreases, so
// the sum moves exactly when some term does, whatever it is summed
// from: it comes from the simulator's tallies (Simulator.activity), not
// from a walk over the wires, the counters and the steps, and equals
// that walk's result.
type watchdog struct {
	window int64

	lastTotal    uint64
	lastProgress int64
	prevProd     uint64
	prevCons     uint64
	// recent is a ring of the last samples: checks counts them, the
	// newest is recent[(checks-1)%recentWindow].
	recent [recentWindow]ActivitySample
	checks uint

	// restored marks fingerprint state loaded from a checkpoint; the
	// next reset keeps it so the restored run's progress view (and the
	// metrics bus watchdog fields derived from it) matches the
	// uninterrupted run's.
	restored bool
	// known marks a progress view that describes this machine: one a
	// Run has started, or a restore loaded. A restore from a file that
	// carries no watchdog state leaves none.
	known bool
}

// reset starts the progress view of a Run.
func (w *watchdog) reset(s *Simulator) {
	w.checks = 0
	w.known = true
	if w.restored {
		w.restored = false
		return
	}
	w.lastProgress = s.cycle
	w.lastTotal = 0
	w.prevProd, w.prevCons = 0, 0
}

// check runs at the end of every cycle. It returns a report
// when no progress has been observed for a full window.
func (w *watchdog) check(s *Simulator, cycle int64) *DeadlockReport {
	prod, cons, silent := s.activity()
	total := prod + cons + silent
	w.recent[w.checks%recentWindow] = ActivitySample{
		Cycle: cycle, Produced: prod - w.prevProd, Consumed: cons - w.prevCons,
	}
	w.checks++
	w.prevProd, w.prevCons = prod, cons
	if total != w.lastTotal {
		w.lastTotal = total
		w.lastProgress = cycle
		return nil
	}
	if cycle-w.lastProgress < w.window {
		return nil
	}
	return w.report(s, cycle)
}

func (w *watchdog) report(s *Simulator, cycle int64) *DeadlockReport {
	r := &DeadlockReport{
		Cycle:  cycle,
		Since:  w.lastProgress,
		Window: w.window,
	}
	for i := w.checks - min(w.checks, recentWindow); i < w.checks; i++ {
		r.Recent = append(r.Recent, w.recent[i%recentWindow])
	}
	for _, sig := range s.Binder.Signals() {
		if !sig.Pending() {
			continue
		}
		p, c := sig.Traffic()
		r.Signal = append(r.Signal, SignalState{
			Name: sig.Name(), Produced: p, Consumed: c, InFlight: sig.InFlight(),
		})
	}
	for _, b := range s.boxes {
		st := BoxState{Name: b.BoxName()}
		if q := InfoOf(b).Queues; q != nil {
			st.Queues = q()
		}
		if bb, ok := b.(interface{ boxBase() *BoxBase }); ok {
			if base := bb.boxBase(); base.parked {
				st.Parked, st.ParkedAt = true, base.parkedAt
				for _, a := range base.counting {
					st.Accruing = append(st.Accruing, a.c.name)
				}
			}
		}
		// A box holding something, or counting stall cycles in its sleep.
		stalled := len(st.Accruing) > 0
		for _, q := range st.Queues {
			stalled = stalled || q.Occupied > 0
		}
		if stalled {
			r.Boxes = append(r.Boxes, st)
		}
	}
	return r
}
