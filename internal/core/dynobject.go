// Package core implements the box-and-signal simulation framework the
// ATTILA simulator is built on (paper §3).
//
// Boxes are timing modules that abstract a "large enough" piece of the
// pipeline (the Clipper, the Fragment Generator, ...). Signals are the
// wires connecting boxes: every signal has a configured bandwidth
// (objects per cycle) and latency (cycles), and the framework verifies
// both on every access, turning modelling mistakes into immediate,
// loud simulation errors instead of silent timing bugs.
//
// The framework is deterministic: one loop on one goroutine clocks the
// boxes once per cycle, and because every signal has a latency of at
// least one cycle, the order in which boxes are clocked within a cycle
// cannot affect results.
package core

// DynObject carries the bookkeeping the framework keeps for every
// object travelling through signals: a unique identifier, the
// identifier of the parent object it derives from (fragments point at
// their triangle, memory transactions at the fragment that caused
// them, forming a multilevel hierarchy), a color used by the signal
// trace visualizer, and a free-form tag.
type DynObject struct {
	ID     uint64
	Parent uint64
	Color  uint32
	Tag    string
}

// DynInfo returns the object's tracking record. It makes *DynObject
// satisfy Dynamic, so any payload struct that embeds DynObject can
// travel through signals.
func (d *DynObject) DynInfo() *DynObject { return d }

// Dynamic is implemented by every payload that travels through a
// Signal. Embedding DynObject provides the implementation.
type Dynamic interface {
	DynInfo() *DynObject
}

// IDSource hands out unique object identifiers, in the order boxes
// ask for them. The zero value is ready to use; nothing in the timing
// model depends on identifier values.
type IDSource struct {
	next uint64
}

// Next returns a fresh identifier. Identifier 0 is never returned so
// it can mean "no parent".
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}
