package jobd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFleetMetricsMergeAcrossJobs: a traced sweep's per-job span
// histograms must merge into one FleetMetrics view — span counts add, client
// histograms are bucket sums — and stay consistent while jobs are
// completing concurrently (this test runs under -race in make check).
func TestFleetMetricsMergeAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{
		OutDir: dir, Workers: 2, Retries: -1, Logf: t.Logf,
		TraceSample: 4, TraceSeed: 1,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := SweepSpec{Name: "fleet", Jobs: []JobSpec{
		testSpec("fleet-1"), testSpec("fleet-2"), testSpec("fleet-3"),
	}}
	if _, err := s.SubmitSweep(spec); err != nil {
		t.Fatal(err)
	}
	sw, err := s.SweepByRef("fleet")
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the merged view while the jobs finish: every intermediate
	// snapshot must be internally consistent (client counts sum to the
	// span total) even as completions land from both workers.
	stop := make(chan struct{})
	raced := make(chan error, 1)
	go func() {
		defer close(raced)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fm := s.FleetMetrics()
			var sum uint64
			for _, cl := range fm.Clients {
				sum += cl.Count
			}
			if sum != fm.Spans {
				raced <- fmt.Errorf("fleet snapshot inconsistent: client counts sum to %d, span total %d", sum, fm.Spans)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-raced; err != nil {
		t.Fatal(err)
	}

	fm := s.FleetMetrics()
	if fm.Jobs != 3 {
		t.Fatalf("fleet sees %d completed traced jobs, want 3", fm.Jobs)
	}
	if fm.SampleRate != 4 {
		t.Errorf("fleet sample rate %d, want 4", fm.SampleRate)
	}
	if fm.Spans == 0 || fm.Spans%3 != 0 {
		t.Errorf("fleet spans %d: identical jobs must contribute identical deterministic counts", fm.Spans)
	}
	var sum uint64
	for name, cl := range fm.Clients {
		if cl.Count%3 != 0 {
			t.Errorf("client %s count %d not divisible by 3 identical jobs", name, cl.Count)
		}
		if cl.Hist.N != cl.Count {
			t.Errorf("client %s: histogram N %d != count %d", name, cl.Hist.N, cl.Count)
		}
		if cl.P99 < cl.P50 {
			t.Errorf("client %s: p99 %d < p50 %d", name, cl.P99, cl.P50)
		}
		sum += cl.Count
	}
	if sum != fm.Spans {
		t.Errorf("client counts sum to %d, fleet total %d", sum, fm.Spans)
	}

	// The HTTP surface: /fleet/metrics serves the same merged view,
	// /jobs/{ref}/spans serves each job's NDJSON dump.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /fleet/metrics: %s", resp.Status)
	}
	var httpFM FleetMetrics
	if err := json.NewDecoder(resp.Body).Decode(&httpFM); err != nil {
		t.Fatal(err)
	}
	if httpFM.Jobs != fm.Jobs || httpFM.Spans != fm.Spans || len(httpFM.Clients) != len(fm.Clients) {
		t.Errorf("HTTP fleet view %+v differs from direct %+v", httpFM, fm)
	}

	var dumps []string
	for _, name := range []string{"fleet-1", "fleet-2", "fleet-3"} {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + name + "/spans")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET /jobs/%s/spans: %s", name, resp.Status)
		}
		if len(strings.TrimSpace(string(body))) == 0 {
			t.Fatalf("job %s: empty span dump", name)
		}
		dumps = append(dumps, string(body))
	}
	// Identical specs sample identical spans: the dumps must be
	// byte-identical across jobs (and therefore across workers).
	if dumps[0] != dumps[1] || dumps[1] != dumps[2] {
		t.Error("span dumps differ across identical jobs — sampling is not deterministic")
	}
}

// TestJobSpansWithoutTracing: a job run with tracing off answers 404
// on its span endpoint, not an empty dump.
func TestJobSpansWithoutTracing(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{OutDir: dir, Workers: 1, Retries: -1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitJob(testSpec("plain-1")); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "plain-1", StateDone)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/jobs/plain-1/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("GET /jobs/plain-1/spans without tracing: %s, want 404", resp.Status)
	}
	fm := s.FleetMetrics()
	if fm.Jobs != 0 || fm.Spans != 0 {
		t.Errorf("untraced jobs leaked into fleet metrics: %+v", fm)
	}
}
