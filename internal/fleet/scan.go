package fleet

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// view is one tick's read of the shared control plane. scan builds it
// and nothing writes it afterwards, so the loop's passes, the GC pass
// and the HTTP handlers all read the same value without locking it.
// The files can move on while a view is acted on; every mutating path
// re-reads the file it changes (trySteal re-verifies under its marker,
// renewLease and fenceCheck read the lease), so a stale view can delay
// an action by a tick, never corrupt the protocol.
type view struct {
	sweeps  []sweepRecord    // every sweep record, sorted by name
	results map[string]bool  // jobs with a published result (listed, not read)
	leases  map[string]lease // leases of jobs without a result
	held    map[string]int   // owner -> how many of those leases it holds
	markers []marker         // steal markers, taken by name
}

// marker is a steal marker leases/<job>.steal.<epoch>.
type marker struct {
	name  string
	job   string
	epoch int64
}

// scan reads the control plane into a fresh view. It touches no Peer
// state but the scanReads counter, which it bumps once per file whose
// contents it reads: every sweep record and lease of an unfinished
// job. A finished job's lease is a tombstone and is never read;
// results are listed by name, and finalizeSweeps reads them only to
// render a summary.
func (p *Peer) scan() *view {
	v := &view{
		results: make(map[string]bool),
		leases:  make(map[string]lease),
		held:    make(map[string]int),
	}
	for _, name := range p.listDir("sweeps") {
		if sw, ok := jobName(name, ".json"); ok {
			rec, err := p.readSweepRecord(sw)
			p.scanReads.Add(1)
			if err == nil {
				v.sweeps = append(v.sweeps, rec)
			}
		}
	}
	sort.Slice(v.sweeps, func(i, j int) bool { return v.sweeps[i].Name < v.sweeps[j].Name })
	for _, name := range p.listDir("results") {
		if job, ok := jobName(name, ".json"); ok {
			v.results[job] = true
		}
	}
	leaseDir := filepath.Join(p.opts.Dir, "leases")
	for _, name := range p.listDir("leases") {
		switch {
		case strings.Contains(name, ".steal."):
			if job, epoch, ok := parseMarkerName(name); ok {
				v.markers = append(v.markers, marker{name: name, job: job, epoch: epoch})
			}
		default:
			job, ok := jobName(name, ".json")
			if !ok || v.results[job] {
				continue
			}
			l, err := readLease(filepath.Join(leaseDir, name))
			p.scanReads.Add(1)
			if err == nil {
				v.leases[job] = l
				v.held[l.Owner]++
			}
		}
	}
	return v
}

// listDir lists the entry names in one control directory; an unreadable
// directory lists as what could be read, and the next tick tries again.
// The in-flight temp files of atomic writes and claims never end in
// .json, so the name checks in scan skip them.
func (p *Peer) listDir(sub string) []string {
	entries, _ := os.ReadDir(filepath.Join(p.opts.Dir, sub))
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// gcLeaseDir ages out steal markers on the observation clock:
//
//   - A marker whose lease already reached its epoch is spent — the
//     steal completed (the winner's marker-remove lost a race or its
//     host died between rewrite and remove). Removed immediately; a
//     finished job's lease is not in the view, so its markers take the
//     2×TTL path below.
//   - A marker whose epoch is still in the future after 2×TTL marks a
//     thief that died mid-steal. It must go: the O_EXCL creation that
//     makes steals exactly-one-winner also means an abandoned marker
//     blocks that epoch's steal forever, and leases/ would otherwise
//     grow without bound.
//
// Ages are measured from when THIS peer first listed the marker, so a
// freshly started peer waits a full 2×TTL before judging anything
// abandoned — conservative, clock-free, and safe against in-flight
// steals which hold markers only for microseconds. The ages kept are
// those of the markers this view lists and this pass leaves in place,
// so a marker that reappears under a removed name is aged afresh.
func (p *Peer) gcLeaseDir(v *view, now time.Time) {
	kept := make(map[string]time.Time, len(v.markers))
	for _, m := range v.markers {
		first, ok := p.firstSeen[m.name]
		if !ok {
			first = now
		}
		l, known := v.leases[m.job]
		switch a := now.Sub(first); {
		case known && l.Epoch >= m.epoch:
			os.Remove(p.stealMarkerPath(m.job, m.epoch))
		case a >= 2*p.opts.LeaseTTL:
			p.logf("fleet: %s: removing abandoned steal marker %s (age %v)", p.opts.PeerID, m.name, a)
			os.Remove(p.stealMarkerPath(m.job, m.epoch))
		default:
			kept[m.name] = first
		}
	}
	p.firstSeen = kept
}
