package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"attila/internal/fsatomic"
)

// PeerState is a watched peer's position in the failure-detection
// state machine. Transitions are one-way per incident and reset to
// alive the moment the peer's heartbeat sequence advances again:
//
//	alive ──(heartbeat stale ≥ TTL)──▶ suspect
//	suspect ──(stale ≥ 2×TTL and health probes failing)──▶ dead
//	dead ──(every lease it held stolen or finished)──▶ reclaimed
//
// A suspect peer whose /healthz still answers stays suspect forever —
// that is the heartbeat-paused-but-alive case (GC pause, partition on
// the shared filesystem, chaos pauseheart), and exactly why lease
// stealing is driven by the per-lease observation clock rather than
// by this state machine: a live-but-stalled host loses its leases to
// the TTL, then fences itself when it wakes.
type PeerState string

const (
	PeerAlive     PeerState = "alive"
	PeerSuspect   PeerState = "suspect"
	PeerDead      PeerState = "dead"
	PeerReclaimed PeerState = "reclaimed"
)

// heartbeat is the on-disk liveness record each peer republishes
// every tick. Like leases it is clock-free: only the sequence number
// matters, and only its rate of change as observed locally.
type heartbeat struct {
	ID   string `json:"id"`
	Seq  int64  `json:"seq"`
	Addr string `json:"addr,omitempty"` // status-server address for /healthz probes
}

// PeerInfo is the API view of a watched peer (/fleet/peers).
type PeerInfo struct {
	ID    string    `json:"id"`
	State PeerState `json:"state"`
	Seq   int64     `json:"seq"`
	// StaleSecs is how long the heartbeat has been unchanged, measured
	// on the reporting peer's clock.
	StaleSecs float64 `json:"staleSecs"`
	// Probes counts /healthz probes sent since the peer went suspect.
	Probes int `json:"probes,omitempty"`
	// Leases counts the leases the peer currently holds.
	Leases int `json:"leases"`
}

// watchedPeer is the observer-side record of one remote peer.
type watchedPeer struct {
	id        string
	addr      string
	seq       int64
	obs       observation
	state     PeerState
	probes    int
	probeOK   bool
	nextProbe time.Time
	backoff   time.Duration
}

func (p *Peer) heartbeatPath(id string) string {
	return filepath.Join(p.opts.Dir, "peers", id+".json")
}

// publishHeartbeat bumps and rewrites this peer's heartbeat file
// through the common fsync'd atomic writer: the heartbeat had the
// same torn-write exposure the lease file did (a fixed-name temp and
// no fsync), and a corrupt heartbeat reads as a silent peer.
func (p *Peer) publishHeartbeat() {
	p.hbSeq++
	hb := heartbeat{ID: p.opts.PeerID, Seq: p.hbSeq, Addr: p.opts.Addr}
	data, err := json.Marshal(hb)
	if err != nil {
		return
	}
	if err := fsatomic.WriteFile(p.heartbeatPath(p.opts.PeerID), append(data, '\n')); err != nil {
		p.logf("fleet: %s: heartbeat write failed: %v", p.opts.PeerID, err)
	}
}

// readHeartbeat loads one heartbeat file.
func readHeartbeat(path string) (heartbeat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return heartbeat{}, err
	}
	var hb heartbeat
	if err := json.Unmarshal(data, &hb); err != nil {
		return heartbeat{}, err
	}
	return hb, nil
}

// observePeers advances each watched peer's state machine from the
// view's heartbeats: an unchanged sequence number is what lets the
// observation clock accumulate staleness. now is the caller's local
// clock.
func (p *Peer) observePeers(v *view, now time.Time) {
	for name, hb := range v.beats {
		if name == p.opts.PeerID {
			continue
		}
		p.mu.Lock()
		wp := p.peers[name]
		if wp == nil {
			wp = &watchedPeer{id: name, state: PeerAlive}
			p.peers[name] = wp
		}
		wp.addr = hb.Addr
		wp.seq = hb.Seq
		stale := wp.obs.observe(fmt.Sprintf("%d", hb.Seq), now)
		p.advancePeerLocked(wp, stale, v.held[name], now)
		p.mu.Unlock()
	}
}

// advancePeerLocked runs one step of the state machine. Caller holds
// mu; the health probe (network I/O) is issued outside the lock via
// the returned closure pattern — but probes are rare and bounded by
// backoff, so for simplicity they run inline with a short timeout.
func (p *Peer) advancePeerLocked(wp *watchedPeer, stale time.Duration, held int, now time.Time) {
	ttl := p.opts.LeaseTTL
	if stale == 0 {
		// Heartbeat advanced: whatever we thought, the peer is back.
		if wp.state != PeerAlive {
			p.logf("fleet: %s: peer %s recovered (was %s)", p.opts.PeerID, wp.id, wp.state)
		}
		wp.state = PeerAlive
		wp.probes = 0
		wp.backoff = 0
		return
	}
	switch wp.state {
	case PeerAlive:
		if stale >= ttl {
			wp.state = PeerSuspect
			wp.backoff = ttl / 4
			wp.nextProbe = now
			p.logf("fleet: %s: peer %s suspect (heartbeat stale %v)", p.opts.PeerID, wp.id, stale)
		}
	case PeerSuspect:
		// Probe /healthz with exponential backoff while suspect: a
		// paused-but-alive host keeps answering and stays suspect; a
		// dead one fails probes and is declared dead once the heartbeat
		// has been silent two full TTLs.
		if wp.addr != "" && now.After(wp.nextProbe) {
			wp.probes++
			wp.probeOK = probeHealthz(wp.addr)
			wp.backoff *= 2
			if max := 2 * ttl; wp.backoff > max {
				wp.backoff = max
			}
			wp.nextProbe = now.Add(wp.backoff)
		}
		if stale >= 2*ttl && (wp.addr == "" || !wp.probeOK) {
			wp.state = PeerDead
			p.logf("fleet: %s: peer %s dead (stale %v, %d probes)", p.opts.PeerID, wp.id, stale, wp.probes)
		}
	case PeerDead:
		if held == 0 {
			wp.state = PeerReclaimed
			p.logf("fleet: %s: peer %s reclaimed (no leases left)", p.opts.PeerID, wp.id)
		}
	case PeerReclaimed:
		// Terminal until the heartbeat advances again.
	}
}

// probeHealthz asks a peer's status server whether the process is up.
func probeHealthz(addr string) bool {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	client := &http.Client{Timeout: 500 * time.Millisecond}
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Peers returns the watched peers' states (self excluded), sorted by
// ID for stable output. Lease counts come from the loop's last view.
func (p *Peer) Peers() []PeerInfo {
	now := time.Now()
	counts := p.lastView().held
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerInfo, 0, len(p.peers))
	for _, wp := range p.peers {
		info := PeerInfo{ID: wp.id, State: wp.state, Seq: wp.seq, Probes: wp.probes, Leases: counts[wp.id]}
		if !wp.obs.since.IsZero() {
			info.StaleSecs = now.Sub(wp.obs.since).Seconds()
		}
		out = append(out, info)
	}
	sortPeerInfo(out)
	return out
}

func sortPeerInfo(infos []PeerInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}
