package fleet

import (
	"encoding/json"
	"net/http"
	"sort"
)

// PeerInfo is one lease holder in /fleet/peers.
type PeerInfo struct {
	ID string `json:"id"`
	// Leases counts the live leases (of jobs without a result) it holds.
	Leases int `json:"leases"`
}

// Peers lists every owner a live lease names in the loop's last view,
// sorted by ID. A peer holding no live lease is not listed: the lease
// is the fleet's only liveness signal.
func (p *Peer) Peers() []PeerInfo {
	held := p.lastView().held
	out := make([]PeerInfo, 0, len(held))
	for id, n := range held {
		out = append(out, PeerInfo{ID: id, Leases: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Handler wraps the local job server's HTTP API and adds the
// fleet-level routes:
//
//	GET /fleet/peers   lease holders and their live lease counts, and
//	                   this peer's control-plane stats (gauges + counters)
//
// Everything else (/jobs, /sweeps, /fleet/metrics) is served by the
// embedded jobd handler, so a fleet peer mounts exactly like a
// single-host job server under the obsv status server. The same
// stats render as OpenMetrics families when the status server is
// given ServerOptions.Fleet = peer.FleetStats.
func (p *Peer) Handler() http.Handler {
	jobs := p.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/peers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"self":  p.opts.PeerID,
			"peers": p.Peers(),
			"stats": p.FleetStats(),
		})
	})
	mux.Handle("/", jobs)
	return mux
}
