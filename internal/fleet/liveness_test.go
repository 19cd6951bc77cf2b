package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"attila/internal/jobd"
)

// TestOldHeartbeatIsInert: peers/<id>.json heartbeats, written by older
// binaries in a mixed fleet, are read by nothing. The ghost's address
// points at a status server whose /healthz never answers; a peer that
// holds a lease beside it must keep answering FleetStats and its fence
// check promptly, keep renewing every tick, and never call that server.
func TestOldHeartbeatIsInert(t *testing.T) {
	var probes atomic.Int64
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		<-r.Context().Done()
	}))
	defer hung.Close()

	dir := t.TempDir()
	a := newIdlePeer(t, dir, "peer-a")
	ghost := fmt.Sprintf(`{"id":"ghost","seq":1,"addr":%q}`+"\n", hung.Listener.Addr().String())
	if err := os.MkdirAll(filepath.Join(dir, "peers"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "peers", "ghost.json"), []byte(ghost), 0o644); err != nil {
		t.Fatal(err)
	}
	epoch, err := a.tryClaim("job")
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.owned["job"] = &ownedJob{epoch: epoch}
	a.mu.Unlock()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const prompt = 50 * time.Millisecond
	var slowStats, slowFence, maxGap time.Duration
	start := time.Now()
	lastSeq, lastRenew := int64(0), start
	for {
		now := time.Now()
		if l, err := readLease(a.leasePath("job")); err == nil && l.Seq != lastSeq {
			lastSeq, lastRenew = l.Seq, now
		}
		maxGap = max(maxGap, now.Sub(lastRenew))
		if now.Sub(start) >= 3*testTTL {
			break
		}
		t0 := time.Now()
		a.FleetStats()
		slowStats = max(slowStats, time.Since(t0))
		t0 = time.Now()
		if err := a.fenceCheck("job"); err != nil {
			t.Fatalf("fence refused the lease holder: %v", err)
		}
		slowFence = max(slowFence, time.Since(t0))
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("slowest FleetStats %v, slowest fenceCheck %v, longest renewal gap %v", slowStats, slowFence, maxGap)
	if slowStats > prompt || slowFence > prompt {
		t.Errorf("slowest FleetStats %v, slowest fenceCheck %v; both must return within %v", slowStats, slowFence, prompt)
	}
	if maxGap > testTTL/2 {
		t.Errorf("lease went %v without a renewal (seq %d); want at most %v", maxGap, lastSeq, testTTL/2)
	}
	if n := probes.Load(); n != 0 {
		t.Errorf("the old heartbeat's address was probed %d times", n)
	}
}

// TestDefaultMaxClaimsFollowsWorkers: with MaxClaims unset the claim
// budget is twice the workers the local job server really runs, its
// GOMAXPROCS/2 default included.
func TestDefaultMaxClaimsFollowsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	p, err := NewPeer(Options{Dir: t.TempDir(), PeerID: "p", Jobd: jobd.Options{Workers: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.opts.MaxClaims; got != 8 {
		t.Fatalf("default MaxClaims = %d at GOMAXPROCS 8, want 8 (2 × 4 jobd workers)", got)
	}
}
