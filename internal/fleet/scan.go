package fleet

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// view is one tick's read of the shared control plane. scan builds it
// and nothing writes it afterwards, so the loop's passes, the GC pass
// and the HTTP handlers all read the same value without locking it.
// The files can move on while a view is acted on; every mutating path
// re-reads the file it changes (trySteal re-verifies under its marker,
// renewLease and fenceCheck read the lease), so a stale view can delay
// an action by a tick, never corrupt the protocol.
type view struct {
	sweeps   []sweepRecord        // every sweep record, sorted by name
	results  map[string]bool      // jobs with a published result (listed, not read)
	leases   map[string]lease     // leases of jobs without a result
	held     map[string]int       // owner -> how many of those leases it holds
	handoffs map[string]handoff   // job -> drain-handoff record
	markers  []marker             // steal markers, taken by name
	beats    map[string]heartbeat // peer id -> heartbeat
}

// marker is a steal marker leases/<job>.steal.<epoch>.
type marker struct {
	name  string
	job   string
	epoch int64
}

// scan reads the control plane into a fresh view. It touches no Peer
// state but the scanReads counter, which it bumps once per file whose
// contents it reads: every sweep record, lease of an unfinished job,
// handoff record and heartbeat. A finished job's lease is a tombstone
// and is never read; results are listed by name, and finalizeSweeps
// reads them only to render a summary.
func (p *Peer) scan() *view {
	v := &view{
		results:  make(map[string]bool),
		leases:   make(map[string]lease),
		held:     make(map[string]int),
		handoffs: make(map[string]handoff),
		beats:    make(map[string]heartbeat),
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
		case strings.HasSuffix(name, ".handoff"):
			h, err := readHandoff(filepath.Join(leaseDir, name))
			p.scanReads.Add(1)
			if err == nil {
				v.handoffs[strings.TrimSuffix(name, ".handoff")] = h
			}
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
	for _, name := range p.listDir("peers") {
		if id, ok := jobName(name, ".json"); ok {
			hb, err := readHeartbeat(p.heartbeatPath(id))
			p.scanReads.Add(1)
			if err == nil {
				v.beats[id] = hb
			}
		}
	}
	return v
}

// listDir lists the entry names in one control directory; an unreadable
// directory lists as what could be read, and the next tick tries again. The in-flight
// temp files of atomic writes and claims never end in .json or
// .handoff, so the name checks in scan skip them.
func (p *Peer) listDir(sub string) []string {
	entries, _ := os.ReadDir(filepath.Join(p.opts.Dir, sub))
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
