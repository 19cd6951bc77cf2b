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
type Signal struct {
	name     string
	bw       int
	lat      int
	maxLat   int
	ring     [][]Dynamic // indexed by cycle & mask
	stamp    []int64     // cycle each ring slot was last written for
	mask     int64       // len(ring)-1; len(ring) is a power of two
	wrCycle  int64       // cycle of the most recent writes
	wrCount  int         // writes performed during wrCycle
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

type traceEntry struct {
	cycle int64
	obj   *DynObject
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
	return &Signal{
		name:   name,
		bw:     bandwidth,
		lat:    latency,
		maxLat: maxLat,
		ring:   make([][]Dynamic, n),
		stamp:  make([]int64, n),
		mask:   int64(n - 1),
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
	slot := arrive & s.mask
	if len(s.ring[slot]) > 0 && s.stamp[slot] != arrive {
		simFail(s.name, cycle, "data lost: %d unread objects from cycle %d", len(s.ring[slot]), s.stamp[slot])
	}
	s.stamp[slot] = arrive
	s.ring[slot] = append(s.ring[slot], obj)
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
// keeps the steady state
// allocation-free: the ring reaches its high-water capacity once and
// never reallocates.
//
// Nothing in flight (produced == consumed) means nothing can arrive:
// an object arriving at cycle C was written during an earlier cycle,
// and a write made this cycle arrives at C+1 or later. So the empty-wire
// exit returns what the ring lookup would.
func (s *Signal) Read(cycle int64) []Dynamic {
	if s.produced == s.consumed {
		return nil
	}
	slot := cycle & s.mask
	if len(s.ring[slot]) == 0 || s.stamp[slot] != cycle {
		return nil
	}
	out := s.ring[slot]
	s.ring[slot] = out[:0]
	s.consumed += uint64(len(out))
	if t := s.consTally; t != nil {
		*t += uint64(len(out))
	}
	if s.tracer != nil {
		for _, o := range out {
			s.traceBuf = append(s.traceBuf, traceEntry{cycle, o.DynInfo()})
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
	for slot, objs := range s.ring {
		if len(objs) == 0 {
			continue
		}
		arrive := s.stamp[slot]
		for _, o := range objs {
			total++
			if len(out) < inFlightMax {
				d := o.DynInfo()
				out = append(out, fmt.Sprintf("%s#%d @%d", d.Tag, d.ID, arrive))
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
	for slot, objs := range s.ring {
		if len(objs) > 0 {
			s.ring[slot][0] = nil
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
// of each cycle.
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
	for _, e := range s.traceBuf {
		s.tracer.Trace(e.cycle, s.name, e.obj)
	}
	s.traceBuf = s.traceBuf[:0]
}
