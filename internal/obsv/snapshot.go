package obsv

import (
	"encoding/json"
	"fmt"

	"attila/internal/chkpt"
	"attila/internal/obsv/trace"
)

// This file makes the metrics bus checkpointable. The bus is host-side
// state, but its sample ring and window position feed the metrics
// NDJSON — restoring them is what makes a resumed run's NDJSON
// byte-identical to an uninterrupted one. The windows themselves are
// the statistics rows, whose baselines the core.Stats section carries.
// Wall-clock anchors are deliberately NOT serialized: a resumed run
// re-baselines them from its own clock, so host-time fields measure the
// new process, not the dead one.

// SnapshotName implements chkpt.Snapshotter. The name differs from the
// older layout's ("obsv.Bus", which carried per-stat baselines), so a
// binary refuses the other layout as a missing section, a typed
// mismatch, rather than misreading it.
func (b *Bus) SnapshotName() string { return "obsv.Windows" }

// SnapshotState serializes the sampling position (seq, prevCycle), the
// sample ring (as JSON — WindowSample is already the NDJSON wire
// format) and the span-latency baselines.
func (b *Bus) SnapshotState(e *chkpt.Encoder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e.I64(b.seq)
	e.I64(b.prevCycle)
	ring, err := json.Marshal(b.ring)
	if err != nil {
		// Samples are plain data; Marshal cannot fail on them. Encode an
		// empty ring rather than corrupting the section layout.
		ring = []byte("[]")
	}
	e.Blob(ring)
	// Span-latency baselines: the per-client histogram snapshots the
	// next window will diff against. Serialized even when empty so the
	// section layout is fixed.
	hists, err := json.Marshal(b.hists)
	if err != nil {
		hists = []byte("null")
	}
	e.Blob(hists)
}

// RestoreState implements chkpt.Snapshotter.
func (b *Bus) RestoreState(d *chkpt.Decoder) error {
	seq := d.I64()
	prevCycle := d.I64()
	ring := d.Blob()
	histBlob := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	var samples []*WindowSample
	if err := json.Unmarshal(ring, &samples); err != nil {
		return fmt.Errorf("%w: bus ring: %v", chkpt.ErrCorrupt, err)
	}
	var hists map[string]trace.Histogram
	if err := json.Unmarshal(histBlob, &hists); err != nil {
		return fmt.Errorf("%w: bus latency baselines: %v", chkpt.ErrCorrupt, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq = seq
	b.prevCycle = prevCycle
	b.ring = samples
	if len(b.ring) > b.depth {
		b.ring = b.ring[len(b.ring)-b.depth:]
	}
	if b.spans != nil {
		if hists == nil {
			hists = make(map[string]trace.Histogram)
		}
		b.hists = hists
	}
	// Re-anchor the wall clock: host time starts over in this process.
	b.lastWall = b.now()
	return nil
}
