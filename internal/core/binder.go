package core

import (
	"fmt"
	"sort"
)

// Binder is the framework's name server for signals (the paper's
// SignalBinder). A producing box registers a signal with Provide, the
// consuming box looks it up with Bind; registration order does not
// matter. Validate checks that every signal ends up with exactly one
// producer and one consumer, which is what lets a box be swapped for
// an alternative implementation that registers the same signals.
type Binder struct {
	signals   map[string]*Signal
	order     []*Signal         // registration order, for whoever visits them all
	sorted    []*Signal         // by name, built on first use
	producers map[string]string // signal name -> box name
	consumers map[string]string
	owners    map[string]string          // Own: name -> the box that clocks it
	pending   map[string][]func(*Signal) // Bind calls before Provide
}

// NewBinder creates an empty signal registry.
func NewBinder() *Binder {
	return &Binder{
		signals:   make(map[string]*Signal),
		producers: make(map[string]string),
		consumers: make(map[string]string),
		owners:    make(map[string]string),
		pending:   make(map[string][]func(*Signal)),
	}
}

// Provide registers box as the single producer of the named signal,
// creating it with the given parameters. Providing the same name
// twice is a configuration error.
func (b *Binder) Provide(box, name string, bandwidth, latency, maxLat int) *Signal {
	if prev, ok := b.producers[name]; ok {
		panic(fmt.Sprintf("signal %q already provided by box %q (now also %q)", name, prev, box))
	}
	s := NewSignal(name, bandwidth, latency, maxLat)
	b.signals[name] = s
	b.order = append(b.order, s)
	b.sorted = nil
	b.producers[name] = box
	for _, fn := range b.pending[name] {
		fn(s)
	}
	delete(b.pending, name)
	return s
}

// Bind registers box as the single consumer of the named signal and
// stores the resolved *Signal through dst once available (immediately
// if the producer registered first).
func (b *Binder) Bind(box, name string, dst **Signal) {
	if prev, ok := b.consumers[name]; ok {
		panic(fmt.Sprintf("signal %q already bound by box %q (now also %q)", name, prev, box))
	}
	b.consumers[name] = box
	if s, ok := b.signals[name]; ok {
		*dst = s
		return
	}
	b.pending[name] = append(b.pending[name], func(s *Signal) { *dst = s })
}

// Own declares that the wires provided and bound under name — a part
// that is no box itself, such as a cache's memory port — are written
// and read by box, which clocks that part: a write on a wire bound
// under name wakes box. Wire and section names do not change.
func (b *Binder) Own(box, name string) { b.owners[name] = box }

// boxOf resolves the name a wire end was registered under to the box
// at that end.
func (b *Binder) boxOf(name string) string {
	if owner, ok := b.owners[name]; ok {
		return owner
	}
	return name
}

// Validate returns an error when any signal is missing a producer or
// a consumer. Call it after all boxes have registered.
func (b *Binder) Validate() error {
	var problems []string
	for name := range b.consumers {
		if _, ok := b.producers[name]; !ok {
			problems = append(problems, fmt.Sprintf("signal %q bound but never provided", name))
		}
	}
	for name := range b.producers {
		if _, ok := b.consumers[name]; !ok {
			problems = append(problems, fmt.Sprintf("signal %q provided but never bound", name))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("binder: %d unconnected signals: %v", len(problems), problems)
	}
	return nil
}

// Signals returns every registered signal, sorted by name, for
// tracing and diagnostics. The slice is shared: do not modify it.
func (b *Binder) Signals() []*Signal {
	if b.sorted == nil && len(b.order) > 0 {
		b.sorted = append([]*Signal(nil), b.order...)
		sort.Slice(b.sorted, func(i, j int) bool { return b.sorted[i].name < b.sorted[j].name })
	}
	return b.sorted
}

// SetTracer installs t on every currently registered signal. Install
// after wiring is complete (Validate) so no signal is missed.
func (b *Binder) SetTracer(t Tracer) {
	for _, s := range b.order {
		s.setTracer(t)
	}
}
