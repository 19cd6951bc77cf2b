package obsv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"attila/internal/core"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestServerEndpointsAfterRun(t *testing.T) {
	sim, _, _ := buildTestSim(25)
	sim.SetWatchdog(500)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	prof := NewProfiler()
	prof.SampleEvery = 1
	prof.Attach(sim)
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	bus.Flush()

	man := NewManifest("obsv-test", nil)
	srv := NewServer(":0", ServerOptions{
		Bus:      bus,
		Profiler: prof,
		Crash:    sim.Crash,
		Manifest: func() *Manifest { return man },
	})
	h := srv.Handler()

	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != len(bus.Snapshot()) {
		t.Fatalf("/metrics lines: want %d, got %d", len(bus.Snapshot()), len(lines))
	}
	for _, line := range lines {
		var s WindowSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("/metrics bad line %q: %v", line, err)
		}
	}

	if code, body = get(t, h, "/metrics?last=1"); code != http.StatusOK ||
		len(strings.Split(strings.TrimSpace(body), "\n")) != 1 {
		t.Fatalf("/metrics?last=1: %d %q", code, body)
	}
	if code, _ = get(t, h, "/metrics?last=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/metrics?last=bogus: want 400, got %d", code)
	}

	code, body = get(t, h, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: %d %s", code, body)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.Cycle != sim.Cycle()-1 || p.Watchdog == nil {
		t.Fatalf("/progress payload: %+v", p)
	}

	// Healthy run: no crash.
	if code, _ = get(t, h, "/crash"); code != http.StatusNotFound {
		t.Fatalf("/crash on healthy run: want 404, got %d", code)
	}

	code, body = get(t, h, "/profile")
	if code != http.StatusOK {
		t.Fatalf("/profile: %d %s", code, body)
	}
	var rows []BoxTime
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) != 2 {
		t.Fatalf("/profile payload: %v %s", err, body)
	}

	code, body = get(t, h, "/manifest")
	if code != http.StatusOK || !strings.Contains(body, "obsv-test") {
		t.Fatalf("/manifest: %d %s", code, body)
	}

	if code, body = get(t, h, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %s", code, body)
	}
	if code, _ = get(t, h, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: want 404, got %d", code)
	}
	if code, body = get(t, h, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}

// The acceptance criterion: /progress and /metrics answer while the
// simulation is mid-run. The request fires from a cycle-barrier hook,
// the exact point where live readers see published state.
func TestServerLiveMidRun(t *testing.T) {
	sim, _, _ := buildTestSim(60)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	srv := NewServer(":0", ServerOptions{Bus: bus})
	h := srv.Handler()

	var midProgress Progress
	var midMetrics int
	sim.OnEndCycle(func(cycle int64) {
		if cycle != 35 {
			return
		}
		code, body := get(t, h, "/progress")
		if code != http.StatusOK {
			t.Errorf("mid-run /progress: %d", code)
		}
		if err := json.Unmarshal([]byte(body), &midProgress); err != nil {
			t.Error(err)
		}
		code, body = get(t, h, "/metrics")
		if code != http.StatusOK {
			t.Errorf("mid-run /metrics: %d", code)
		}
		midMetrics = len(strings.Split(strings.TrimSpace(body), "\n"))
	})
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	// Progress reports the latest window's cycle.
	if midProgress.Cycle != 30 || midProgress.Done {
		t.Fatalf("mid-run progress: %+v", midProgress)
	}
	if midMetrics != 3 { // windows at cycles 10, 20, 30
		t.Fatalf("mid-run metrics windows: want 3, got %d", midMetrics)
	}
}

func TestServerCrashAfterDeadlock(t *testing.T) {
	sim, _, _ := buildTestSim(5)
	sim.SetDone(func() bool { return false })
	sim.SetWatchdog(20)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	err := sim.Run(10000)
	if !errors.Is(err, core.ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	bus.Flush()

	srv := NewServer(":0", ServerOptions{Bus: bus, Crash: sim.Crash})
	code, body := get(t, srv.Handler(), "/crash")
	if code != http.StatusOK {
		t.Fatalf("/crash after deadlock: %d %s", code, body)
	}
	var rep core.CrashReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "deadlock" || rep.Deadlock == nil {
		t.Fatalf("/crash payload: %+v", rep)
	}
}

func TestServerNilSources(t *testing.T) {
	srv := NewServer(":0", ServerOptions{})
	for _, path := range []string{"/metrics", "/progress", "/crash", "/profile", "/manifest"} {
		if code, _ := get(t, srv.Handler(), path); code != http.StatusNotFound {
			t.Fatalf("%s with nil source: want 404, got %d", path, code)
		}
	}
}

func TestServerStartServesOverTCP(t *testing.T) {
	sim, _, _ := buildTestSim(25)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	bus.Flush()

	srv := NewServer("127.0.0.1:0", ServerOptions{Bus: bus})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/progress", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\"cycle\"") {
		t.Fatalf("live /progress: %d %s", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
