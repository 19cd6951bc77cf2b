package core

import (
	"fmt"

	"attila/internal/chkpt"
)

// This file implements the chkpt.Snapshotter interface for the
// framework-owned state: the simulator (cycle, object-ID source,
// watchdog fingerprint), the statistics manager (cumulative values and
// interval rows — what makes a restored run's CSV byte-identical), and
// the binder (per-signal traffic counters). Snapshots are taken only
// at the end of a quiesced cycle, where every signal has
// produced == consumed and no transient state is in flight.

// SnapshotName implements chkpt.Snapshotter.
func (s *Simulator) SnapshotName() string { return "core.Sim" }

// SnapshotState serializes the cycle counter, the dynamic-object ID
// source, and (when armed) the watchdog's progress fingerprint.
func (s *Simulator) SnapshotState(e *chkpt.Encoder) {
	e.I64(s.cycle)
	e.U64(s.IDs.next)
	if s.wd != nil {
		e.Bool(true)
		e.I64(s.wd.lastProgress)
		e.U64(s.wd.lastTotal)
		e.U64(s.wd.prevProd)
		e.U64(s.wd.prevCons)
	} else {
		e.Bool(false)
	}
}

// RestoreState implements chkpt.Snapshotter. The next Run continues
// from the restored cycle (Run's budget counts from there), asking the
// done predicate before it clocks one: a capture at a run's final
// barrier restores to a run that is over. Watchdog
// state only applies when a watchdog is armed on the restored
// simulator; arming is a host knob, so a checkpoint from a
// watchdog-less run restores fine into a guarded one and vice versa.
func (s *Simulator) RestoreState(d *chkpt.Decoder) error {
	cycle := d.I64()
	nextID := d.U64()
	var lastProgress int64
	var lastTotal, prevProd, prevCons uint64
	hasWd := d.Bool()
	if hasWd {
		lastProgress = d.I64()
		lastTotal = d.U64()
		prevProd = d.U64()
		prevCons = d.U64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	if cycle < 0 {
		return fmt.Errorf("%w: negative cycle %d", chkpt.ErrCorrupt, cycle)
	}
	s.cycle = cycle
	s.IDs.next = nextID
	s.resumed = true
	if s.wd != nil {
		s.wd.lastProgress = lastProgress
		s.wd.lastTotal = lastTotal
		s.wd.prevProd = prevProd
		s.wd.prevCons = prevCons
		s.wd.restored = hasWd
		s.wd.known = hasWd
	}
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (m *StatManager) SnapshotName() string { return "core.Stats" }

// SnapshotState serializes every registered stat's cumulative value
// (plus gauge maxima), the per-stat last-sample baseline, and all
// interval rows recorded so far, so the restored run's CSV and
// summary outputs are byte-identical to the uninterrupted run's.
func (m *StatManager) SnapshotState(e *chkpt.Encoder) {
	e.U32(uint32(len(m.stats)))
	for _, s := range m.stats {
		e.Str(s.StatName())
		e.F64(s.Value())
		if g, ok := s.(*Gauge); ok {
			e.Bool(true)
			e.F64(g.max)
		} else {
			e.Bool(false)
		}
	}
	e.F64s(m.last)
	e.I64(m.lastSample)
	e.Bool(m.hasSample)
	e.U32(uint32(len(m.rows)))
	for _, r := range m.rows {
		e.I64(r.cycle)
		e.F64s(r.deltas)
	}
}

// RestoreState implements chkpt.Snapshotter. The stat registry of the
// restored machine must match the snapshot exactly (same names, same
// order — both follow from building the same configuration).
func (m *StatManager) RestoreState(d *chkpt.Decoder) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(m.stats) {
		return fmt.Errorf("%w: snapshot has %d stats, machine has %d", chkpt.ErrMismatch, n, len(m.stats))
	}
	for i := 0; i < n; i++ {
		name := d.Str()
		val := d.F64()
		isGauge := d.Bool()
		var gmax float64
		if isGauge {
			gmax = d.F64()
		}
		if d.Err() != nil {
			return d.Err()
		}
		s := m.stats[i]
		if s.StatName() != name {
			return fmt.Errorf("%w: stat %d is %q in snapshot, %q in machine", chkpt.ErrMismatch, i, name, s.StatName())
		}
		switch st := s.(type) {
		case *Counter:
			if isGauge {
				return fmt.Errorf("%w: stat %q is a gauge in snapshot, a counter in machine", chkpt.ErrMismatch, name)
			}
			st.v = val
		case *Gauge:
			if !isGauge {
				return fmt.Errorf("%w: stat %q is a counter in snapshot, a gauge in machine", chkpt.ErrMismatch, name)
			}
			st.v = val
			st.max = gmax
		default:
			return fmt.Errorf("%w: stat %q has unknown type", chkpt.ErrMismatch, name)
		}
	}
	last := d.F64s()
	lastSample := d.I64()
	hasSample := d.Bool()
	nrows := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if len(last) != len(m.stats) && !(len(last) == 0 && len(m.stats) == 0) {
		return fmt.Errorf("%w: baseline has %d entries, machine has %d stats", chkpt.ErrMismatch, len(last), len(m.stats))
	}
	rows := make([]sampleRow, 0, nrows)
	for i := 0; i < nrows; i++ {
		cycle := d.I64()
		deltas := d.F64s()
		if d.Err() != nil {
			return d.Err()
		}
		if len(deltas) != len(m.stats) {
			return fmt.Errorf("%w: row %d has %d deltas, machine has %d stats", chkpt.ErrMismatch, i, len(deltas), len(m.stats))
		}
		rows = append(rows, sampleRow{cycle: cycle, deltas: deltas})
	}
	m.last = last
	m.lastSample = lastSample
	m.hasSample = hasSample
	m.rows = rows
	return nil
}

// SnapshotName implements chkpt.Snapshotter.
func (b *Binder) SnapshotName() string { return "core.Signals" }

// SnapshotState serializes every signal's cumulative traffic
// counters. At a quiesced barrier produced == consumed on every wire,
// but both values feed the watchdog fingerprint and the deadlock
// report, so the absolute counts are preserved.
func (b *Binder) SnapshotState(e *chkpt.Encoder) {
	sigs := b.Signals()
	e.U32(uint32(len(sigs)))
	for _, s := range sigs {
		e.Str(s.name)
		p, c := s.Traffic()
		e.U64(p)
		e.U64(c)
	}
}

// RestoreState implements chkpt.Snapshotter. The section must name
// every wire of the machine exactly once; nothing is restored unless
// it does.
func (b *Binder) RestoreState(d *chkpt.Decoder) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(b.signals) {
		return fmt.Errorf("%w: snapshot has %d signals, machine has %d", chkpt.ErrMismatch, n, len(b.signals))
	}
	traffic := make(map[*Signal][2]uint64, n)
	for i := 0; i < n; i++ {
		name := d.Str()
		p := d.U64()
		c := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		sig, ok := b.signals[name]
		if !ok {
			return fmt.Errorf("%w: snapshot signal %q does not exist in machine", chkpt.ErrMismatch, name)
		}
		if _, dup := traffic[sig]; dup {
			return fmt.Errorf("%w: snapshot names signal %q twice", chkpt.ErrCorrupt, name)
		}
		traffic[sig] = [2]uint64{p, c}
	}
	for sig, t := range traffic {
		sig.produced, sig.consumed = t[0], t[1]
	}
	return nil
}

// Idle reports whether every registered signal has no objects in
// flight — one clause of the global quiesce predicate checkpoints
// require.
func (b *Binder) Idle() bool {
	for _, s := range b.order {
		if s.Pending() {
			return false
		}
	}
	return true
}
