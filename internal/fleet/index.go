package fleet

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The incremental control-plane index. PR 9's peer loop re-read every
// queue spec, lease, result, sweep record, and heartbeat on each
// TTL/3 tick — O(jobs) file-content reads per peer per tick, which at
// 10k jobs×N peers turns the shared filesystem into the bottleneck.
// The index replaces that with the classic mtime-keyed view: each
// tick lists the directory (cheap — one getdents stream plus a stat
// per entry, no content I/O) and re-reads a file's *contents* only
// when its (size, mtime) pair changed since the last look. Steady
// state cost is O(changed): an idle 10k-job sweep costs zero content
// reads per tick.
//
// The queue directory goes one step further and is sharded —
// queue/<prefix>/<job>.json with a 2-hex-digit fnv1a prefix — so even
// the per-entry stat cost scales with churn, not queue size: a shard
// directory's own mtime only changes when an entry is added or
// removed (queue specs are immutable), so unchanged shards are
// skipped without listing them. Every 16th tick forces a full relist
// as armor against filesystems with coarse directory timestamps.
//
// Correctness note: the index is a *hint*, never an authority. Every
// mutating path re-reads the authoritative file directly before
// acting — trySteal re-verifies the lease under its marker, fenceCheck
// and renewLease always hit the file — so a stale index entry can at
// worst delay an action by a tick, never corrupt the protocol.

// fileMeta identifies a file version by directory metadata alone.
type fileMeta struct {
	size    int64
	mtimeNS int64
}

func metaOf(e os.DirEntry) (fileMeta, bool) {
	info, err := e.Info()
	if err != nil {
		return fileMeta{}, false
	}
	return fileMeta{size: info.Size(), mtimeNS: info.ModTime().UnixNano()}, true
}

// skipEntry filters the transient debris atomic writes leave while in
// flight (CreateTemp patterns *.tmp* and *.claim*).
func skipEntry(name string) bool {
	return strings.Contains(name, ".tmp") || strings.Contains(name, ".claim")
}

// refreshDir is the generic incremental pass over one flat directory:
// onChange fires for entries whose metadata differs from the last
// look, onRemove for entries that vanished. Subdirectories are
// ignored.
func refreshDir(dir string, known map[string]fileMeta, onChange func(name string), onRemove func(name string)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.IsDir() || skipEntry(e.Name()) {
			continue
		}
		name := e.Name()
		m, ok := metaOf(e)
		if !ok {
			continue
		}
		seen[name] = true
		if old, had := known[name]; had && old == m {
			continue
		}
		known[name] = m
		onChange(name)
	}
	for name := range known {
		if !seen[name] {
			delete(known, name)
			onRemove(name)
		}
	}
}

// markerInfo is an indexed steal marker leases/<job>.steal.<epoch>.
type markerInfo struct {
	job       string
	epoch     int64
	firstSeen time.Time // local observation clock, for abandoned-marker GC
}

// handoffInfo is an indexed drain-handoff record leases/<job>.handoff.
type handoffInfo struct {
	h         handoff
	firstSeen time.Time
}

// fleetIndex is one peer's in-memory view of the shared control
// plane. It is owned by the peer loop goroutine; nothing here is
// locked. Cross-goroutine consumers (HTTP, FleetStats) read mu-guarded
// snapshots the loop publishes each tick.
type fleetIndex struct {
	p     *Peer
	ticks int

	queueShards map[string]fileMeta // shard dir name -> dir metadata
	queueJobs   map[string]string   // job -> shard name

	leaseMeta map[string]fileMeta
	leases    map[string]lease       // job -> last parsed lease
	markers   map[string]markerInfo  // marker file name -> info
	handoffs  map[string]handoffInfo // job -> parsed handoff

	resultMeta map[string]fileMeta
	results    map[string]Result // job -> parsed result

	sweepMeta map[string]fileMeta
	sweeps    map[string]sweepRecord
	sweepJobs map[string]bool // union of jobs named by any sweep record

	peerMeta map[string]fileMeta
	beats    map[string]heartbeat // peer id -> last parsed heartbeat
}

func newFleetIndex(p *Peer) *fleetIndex {
	return &fleetIndex{
		p:           p,
		queueShards: make(map[string]fileMeta),
		queueJobs:   make(map[string]string),
		leaseMeta:   make(map[string]fileMeta),
		leases:      make(map[string]lease),
		markers:     make(map[string]markerInfo),
		handoffs:    make(map[string]handoffInfo),
		resultMeta:  make(map[string]fileMeta),
		results:     make(map[string]Result),
		sweepMeta:   make(map[string]fileMeta),
		sweeps:      make(map[string]sweepRecord),
		sweepJobs:   make(map[string]bool),
		peerMeta:    make(map[string]fileMeta),
		beats:       make(map[string]heartbeat),
	}
}

// refresh brings every view up to date; called once per loop tick
// before the scan/observe/finalize passes consume the cached state.
func (ix *fleetIndex) refresh(now time.Time) {
	ix.ticks++
	ix.refreshQueue(ix.ticks%16 == 1)
	ix.refreshLeaseDir(now)
	ix.refreshResults()
	ix.refreshSweeps()
	ix.refreshPeers()
}

// --- queue ---

// refreshQueue walks queue/: shard directories are relisted only when
// their own mtime changed (an entry was added or removed — specs are
// immutable). force relists every shard.
func (ix *fleetIndex) refreshQueue(force bool) {
	root := filepath.Join(ix.p.opts.Dir, "queue")
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	seenShard := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seenShard[name] = true
		m, ok := metaOf(e)
		if !ok {
			continue
		}
		if old, had := ix.queueShards[name]; had && old == m && !force {
			continue
		}
		ix.queueShards[name] = m
		ix.relistShard(root, name)
	}
	for shard := range ix.queueShards {
		if !seenShard[shard] {
			delete(ix.queueShards, shard)
			for job, s := range ix.queueJobs {
				if s == shard {
					delete(ix.queueJobs, job)
				}
			}
		}
	}
}

func (ix *fleetIndex) relistShard(root, shard string) {
	for job, s := range ix.queueJobs {
		if s == shard {
			delete(ix.queueJobs, job)
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, shard))
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || skipEntry(e.Name()) {
			continue
		}
		if job, ok := jobName(e.Name(), ".json"); ok {
			ix.queueJobs[job] = shard
		}
	}
}

// --- leases, steal markers, handoffs ---

func (ix *fleetIndex) refreshLeaseDir(now time.Time) {
	dir := filepath.Join(ix.p.opts.Dir, "leases")
	refreshDir(dir, ix.leaseMeta,
		func(name string) {
			switch {
			case strings.HasSuffix(name, ".handoff"):
				job := strings.TrimSuffix(name, ".handoff")
				h, err := readHandoff(filepath.Join(dir, name))
				ix.p.scanReads.Add(1)
				if err != nil {
					return
				}
				first := now
				if prev, ok := ix.handoffs[job]; ok {
					first = prev.firstSeen
				}
				ix.handoffs[job] = handoffInfo{h: h, firstSeen: first}
			case strings.Contains(name, ".steal."):
				job, epoch, ok := parseMarkerName(name)
				if !ok {
					return
				}
				if prev, had := ix.markers[name]; had {
					ix.markers[name] = markerInfo{job: job, epoch: epoch, firstSeen: prev.firstSeen}
					return
				}
				ix.markers[name] = markerInfo{job: job, epoch: epoch, firstSeen: now}
			default:
				job, ok := jobName(name, ".json")
				if !ok {
					return
				}
				l, err := readLease(filepath.Join(dir, name))
				ix.p.scanReads.Add(1)
				if err != nil {
					return
				}
				ix.leases[job] = l
			}
		},
		func(name string) {
			switch {
			case strings.HasSuffix(name, ".handoff"):
				delete(ix.handoffs, strings.TrimSuffix(name, ".handoff"))
			case strings.Contains(name, ".steal."):
				delete(ix.markers, name)
			default:
				if job, ok := jobName(name, ".json"); ok {
					delete(ix.leases, job)
				}
			}
		})
}

func parseMarkerName(name string) (job string, epoch int64, ok bool) {
	i := strings.Index(name, ".steal.")
	if i <= 0 {
		return "", 0, false
	}
	e, err := strconv.ParseInt(name[i+len(".steal."):], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return name[:i], e, true
}

// --- results ---

func (ix *fleetIndex) refreshResults() {
	dir := filepath.Join(ix.p.opts.Dir, "results")
	refreshDir(dir, ix.resultMeta,
		func(name string) {
			job, ok := jobName(name, ".json")
			if !ok {
				return
			}
			res, err := ix.p.readResult(job)
			ix.p.scanReads.Add(1)
			if err != nil {
				return
			}
			ix.results[job] = res
		},
		func(name string) {
			if job, ok := jobName(name, ".json"); ok {
				delete(ix.results, job)
			}
		})
}

// --- sweeps ---

func (ix *fleetIndex) refreshSweeps() {
	dir := filepath.Join(ix.p.opts.Dir, "sweeps")
	changed := false
	refreshDir(dir, ix.sweepMeta,
		func(name string) {
			sw, ok := jobName(name, ".json")
			if !ok {
				return
			}
			rec, err := ix.p.readSweepRecord(sw)
			ix.p.scanReads.Add(1)
			if err != nil {
				return
			}
			ix.sweeps[sw] = rec
			changed = true
		},
		func(name string) {
			if sw, ok := jobName(name, ".json"); ok {
				delete(ix.sweeps, sw)
				changed = true
			}
		})
	if changed {
		ix.sweepJobs = make(map[string]bool)
		for _, rec := range ix.sweeps {
			for _, job := range rec.Jobs {
				ix.sweepJobs[job] = true
			}
		}
	}
}

// --- peer heartbeats ---

func (ix *fleetIndex) refreshPeers() {
	dir := filepath.Join(ix.p.opts.Dir, "peers")
	refreshDir(dir, ix.peerMeta,
		func(name string) {
			id, ok := jobName(name, ".json")
			if !ok {
				return
			}
			hb, err := readHeartbeat(filepath.Join(dir, name))
			ix.p.scanReads.Add(1)
			if err != nil {
				return
			}
			ix.beats[id] = hb
		},
		func(name string) {
			if id, ok := jobName(name, ".json"); ok {
				delete(ix.beats, id)
			}
		})
}

// ownerCounts tallies live (unfinished) leases per owner from the
// cached view — the per-tick replacement for the direct scan in
// leaseCountsByOwner.
func (ix *fleetIndex) ownerCounts() map[string]int {
	counts := make(map[string]int)
	for job, l := range ix.leases {
		if _, done := ix.results[job]; done {
			continue // finished: the lease is a tombstone, not held work
		}
		counts[l.Owner]++
	}
	return counts
}
