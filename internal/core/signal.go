package core

import (
	"fmt"
	"math/bits"
)

// Signal models a wire between two boxes. A signal is created with a
// bandwidth (maximum objects written per cycle) and a latency (cycles
// between write and read). Writes above the bandwidth and reads that
// would lose unconsumed data are simulation errors, reported via
// panic(*SimError) so the offending cycle is impossible to miss.
//
// Boxes with variable-latency operations (multistage ALUs, memory)
// may override the latency per write with WriteLat, up to the MaxLat
// the signal was created with.
//
// Latency >= 1 keeps a cycle's writes apart from its reads: the ring
// has N slots, N the next power of two >= maxLat+1 (so a slot index is
// a mask, not a divide), a write at cycle C with latency L lands in
// slot (C+L) mod N, and a read at cycle C touches slot C mod N; those
// collide only if L == 0 mod N, which L in [1, maxLat] rules out for
// any N > maxLat. produced/consumed count the traffic, and Read uses
// them to leave an empty wire without touching the ring.
//
// Every slot's objects live in one backing array, room per slot, each
// slot capped at its own room. Room is what slots hold, not the
// bandwidth: it starts at one object and doubles, for every slot at
// once, the first time a write finds its slot full (grow). A wire that
// carries one object per cycle keeps one object of room however wide
// it is.
type Signal struct {
	name     string
	bw       int
	lat      int
	maxLat   int
	ring     []ringSlot // indexed by cycle & mask
	room     int        // capacity of every slot's window of the backing array
	mask     int64      // len(ring)-1; len(ring) is a power of two
	wrCycle  int64      // cycle of the most recent writes
	wrCount  int        // writes performed during wrCycle
	produced uint64
	consumed uint64
	// reader is the consuming box, resolved from the Binder when a Run
	// starts: a write wakes it (sim.go, the park contract). Nil on a
	// free-standing signal or a wire bound under a name that is no box's.
	reader *BoxBase
	// prodTally and consTally are the simulator's running totals of wire
	// traffic, bumped beside produced and consumed so that the watchdog
	// reads one pair, not one per wire. Resolved with reader; nil on a
	// free-standing signal.
	prodTally, consTally *uint64

	// Tracing: the reader appends to traceBuf during its clock; the
	// simulator drains every buffer into the shared tracer at the end of
	// the cycle, in signal-name order, so the trace does not depend on
	// the order boxes are clocked in.
	tracer   Tracer
	traceBuf []traceEntry
}

// ringSlot is what arrives at one cycle: the objects, and the cycle they
// were written for.
type ringSlot struct {
	objs  []Dynamic
	stamp int64
}

// traceEntry holds the object's record by value, as it was read: a
// pooled object released and taken again later in the cycle is traced
// under the identity it had on this signal, not its next one.
type traceEntry struct {
	cycle int64
	obj   DynObject
}

// SimError reports a violation of the simulation model (bandwidth
// exceeded, data lost on a signal, binding mistakes). The framework
// panics with *SimError; the Simulator converts it into an error from
// Run so tools can report it cleanly.
type SimError struct {
	Where string
	Cycle int64
	Msg   string
}

func (e *SimError) Error() string {
	return fmt.Sprintf("sim error at cycle %d in %s: %s", e.Cycle, e.Where, e.Msg)
}

func simFail(where string, cycle int64, format string, args ...any) {
	panic(&SimError{Where: where, Cycle: cycle, Msg: fmt.Sprintf(format, args...)})
}

// NewSignal creates a signal. Latency must be at least 1 cycle: the
// framework relies on it for determinism (clocking order cannot
// matter). maxLat extends the ring for WriteLat; pass 0 to allow
// only the default latency.
func NewSignal(name string, bandwidth, latency, maxLat int) *Signal {
	if bandwidth < 1 {
		panic(fmt.Sprintf("signal %s: bandwidth must be >= 1", name))
	}
	if latency < 1 {
		panic(fmt.Sprintf("signal %s: latency must be >= 1", name))
	}
	if maxLat < latency {
		maxLat = latency
	}
	n := ringLen(maxLat + 1)
	s := &Signal{
		name:   name,
		bw:     bandwidth,
		lat:    latency,
		maxLat: maxLat,
		ring:   make([]ringSlot, n),
		mask:   int64(n - 1),
	}
	s.grow()
	return s
}

// grow doubles every slot's room (the first call gives each one object
// of room) in a new backing array, copying what the slots hold. The
// slot a reader took this cycle is empty by then: the reader's slice
// keeps the old array alive until it is done with it.
func (s *Signal) grow() {
	s.room = max(1, 2*s.room)
	backing := make([]Dynamic, len(s.ring)*s.room)
	for i := range s.ring {
		sl := &s.ring[i]
		w := backing[i*s.room : i*s.room : (i+1)*s.room]
		sl.objs = append(w, sl.objs...)
	}
}

// ringLen returns the smallest power of two >= n.
func ringLen(n int) int {
	return 1 << bits.Len(uint(n-1))
}

// Name returns the signal's registered name.
func (s *Signal) Name() string { return s.name }

// Bandwidth returns the configured objects-per-cycle limit.
func (s *Signal) Bandwidth() int { return s.bw }

// Latency returns the configured default latency in cycles.
func (s *Signal) Latency() int { return s.lat }

// Write sends obj through the signal at the default latency: a reader
// calling Read(cycle+Latency()) receives it.
func (s *Signal) Write(cycle int64, obj Dynamic) {
	s.WriteLat(cycle, s.lat, obj)
}

// WriteLat sends obj with an explicit latency between 1 and the
// signal's maximum latency.
func (s *Signal) WriteLat(cycle int64, lat int, obj Dynamic) {
	if lat < 1 || lat > s.maxLat {
		simFail(s.name, cycle, "latency %d outside [1,%d]", lat, s.maxLat)
	}
	if cycle == s.wrCycle {
		if s.wrCount >= s.bw {
			simFail(s.name, cycle, "bandwidth exceeded (%d objects/cycle)", s.bw)
		}
		s.wrCount++
	} else {
		if cycle < s.wrCycle {
			simFail(s.name, cycle, "write moved backwards in time (last write at %d)", s.wrCycle)
		}
		s.wrCycle = cycle
		s.wrCount = 1
	}
	arrive := cycle + int64(lat)
	sl := &s.ring[arrive&s.mask]
	if len(sl.objs) > 0 && sl.stamp != arrive {
		simFail(s.name, cycle, "data lost: %d unread objects from cycle %d", len(sl.objs), sl.stamp)
	}
	if len(sl.objs) == s.room {
		s.grow()
	}
	sl.stamp = arrive
	sl.objs = append(sl.objs, obj)
	s.produced++
	if t := s.prodTally; t != nil {
		*t++
	}
	if r := s.reader; r != nil {
		r.wake()
	}
}

// Read returns the objects arriving at the given cycle, removing them
// from the wire. It returns nil when nothing arrives. Objects not
// read during their arrival cycle are detected as lost data on a
// later conflicting write.
//
// The returned slice's backing array is owned by the signal and
// reused for later writes into the same ring slot; the consumer must
// finish with it during the clock cycle it was read on (which every
// box does — the earliest conflicting write lands at cycle+1). This
// keeps the steady state allocation-free: the slots' room reaches what
// the busiest one holds and never grows again.
//
// Nothing in flight (produced == consumed) means nothing can arrive:
// an object arriving at cycle C was written during an earlier cycle,
// and a write made this cycle arrives at C+1 or later. So the empty-wire
// exit returns what the ring lookup would.
func (s *Signal) Read(cycle int64) []Dynamic {
	if s.produced == s.consumed {
		return nil
	}
	sl := &s.ring[cycle&s.mask]
	if len(sl.objs) == 0 || sl.stamp != cycle {
		return nil
	}
	out := sl.objs
	sl.objs = out[:0]
	s.consumed += uint64(len(out))
	if t := s.consTally; t != nil {
		*t += uint64(len(out))
	}
	if s.tracer != nil {
		for _, o := range out {
			s.traceBuf = append(s.traceBuf, traceEntry{cycle, *o.DynInfo()})
		}
	}
	return out
}

// Pending reports whether any objects are still in flight (written
// but not yet read). Used by drain logic and the end-of-simulation
// assertion.
func (s *Signal) Pending() bool { return s.produced != s.consumed }

// Traffic returns the total objects produced and consumed so far.
func (s *Signal) Traffic() (produced, consumed uint64) {
	return s.produced, s.consumed
}

// inFlightMax bounds how many stuck objects InFlight lists per signal.
const inFlightMax = 8

// InFlight describes the unread objects still on the wire, one entry
// per object formatted "tag#id @arrival", capped at inFlightMax with a
// trailing "+N more" marker. Intended for deadlock reports; call at the
// end of a cycle.
func (s *Signal) InFlight() []string {
	var out []string
	total := 0
	for _, sl := range s.ring {
		for _, o := range sl.objs {
			total++
			if len(out) < inFlightMax {
				d := o.DynInfo()
				out = append(out, fmt.Sprintf("%s#%d @%d", d.Tag, d.ID, sl.stamp))
			}
		}
	}
	if total > len(out) {
		out = append(out, fmt.Sprintf("+%d more", total-len(out)))
	}
	return out
}

// CorruptOne replaces the first in-flight object on the wire with a
// nil payload, returning whether anything was corrupted. This is the
// chaos engine's signal-corruption fault: the consumer's next Read
// delivers the nil Dynamic and its type switch or method call panics,
// which the simulator converts into a *CrashError naming the consumer
// box. Call at the end of a cycle.
func (s *Signal) CorruptOne() bool {
	for _, sl := range s.ring {
		if len(sl.objs) > 0 {
			sl.objs[0] = nil
			return true
		}
	}
	return false
}

// Tracer receives every object as it leaves a signal, one call per
// object. The signal trace file consumed by the Signal Trace
// Visualizer (cmd/sigtrace) is produced through this interface.
// Tracers are shared by every signal; the framework buffers trace
// entries per signal and drains them in signal-name order at the end
// of each cycle. obj is a copy of the object's record as it was read,
// valid for the call only.
type Tracer interface {
	Trace(cycle int64, signal string, obj *DynObject)
}

func (s *Signal) setTracer(t Tracer) { s.tracer = t }

// flushTrace drains the buffered trace entries into the tracer. The
// simulator calls it at the end of every cycle.
func (s *Signal) flushTrace() {
	if s.tracer == nil || len(s.traceBuf) == 0 {
		return
	}
	for i := range s.traceBuf {
		s.tracer.Trace(s.traceBuf[i].cycle, s.name, &s.traceBuf[i].obj)
	}
	s.traceBuf = s.traceBuf[:0]
}
