package obsv

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"attila/internal/obsv/trace"
)

// tracedCollector builds a collector with finished spans on two
// clients, the shape the /metrics.prom exporter aggregates.
func tracedCollector() *trace.Collector {
	col := trace.NewCollector(trace.Options{SampleRate: 1, Seed: 1})
	mc := col.Client("MC0")
	tex := col.Client("TexCache0")
	for i := int64(0); i < 30; i++ {
		c := i * 4
		if sp := mc.Start(trace.KindRead, c, uint32(i)); sp != nil {
			sp.Enqueue, sp.Sched, sp.Complete = c+1, c+2, c+5
			sp.Finish(c + 6)
		}
		if sp := tex.Start(trace.KindWrite, c, uint32(i)); sp != nil {
			sp.Enqueue, sp.Sched, sp.Complete = c, c+1, c+3
			sp.Finish(c + 3)
		}
		col.EndCycle(c)
	}
	return col
}

// TestMetricsPromEndpointLints: the exposition the server serves must
// pass its own OpenMetrics lint — duplicate series, missing TYPEs,
// non-cumulative buckets, or a missing EOF terminator all fail here.
func TestMetricsPromEndpointLints(t *testing.T) {
	sim, _, _ := buildTestSim(25)
	bus := NewBus(sim, BusOptions{Now: fakeClock(time.Millisecond)})
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	bus.Flush()
	col := tracedCollector()

	srv := httptest.NewServer(NewServer("", ServerOptions{Bus: bus, Spans: col}).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics.prom: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type %q, want openmetrics-text", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if err := LintOpenMetrics(strings.NewReader(text)); err != nil {
		t.Fatalf("served exposition fails its own lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"attila_run_cycles",
		"attila_counter_total{stat=\"Producer.sent\"}",
		"attila_spans_sampled_total 60",
		"attila_span_latency_cycles_bucket{client=\"MC0\",phase=\"total\",le=\"7\"}",
		"attila_span_latency_cycles_count{client=\"TexCache0\",phase=\"wait\"}",
		"# EOF",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestSpansEndpoint(t *testing.T) {
	col := tracedCollector()
	srv := httptest.NewServer(NewServer("", ServerOptions{Spans: col}).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /spans: %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 60 {
		t.Fatalf("span dump has %d lines, want 60", len(lines))
	}
	if !strings.Contains(lines[0], `"client":"MC0"`) {
		t.Errorf("first span line: %q", lines[0])
	}

	// Without a collector the endpoint answers 404, not an empty dump.
	none := httptest.NewServer(NewServer("", ServerOptions{}).Handler())
	defer none.Close()
	if resp, err := none.Client().Get(none.URL + "/spans"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET /spans without collector: %s, want 404", resp.Status)
		}
	}
}

// TestHealthAndReadyEndpoints: /healthz is unconditional liveness;
// /readyz follows the Ready hook (503 while a jobd server drains).
func TestHealthAndReadyEndpoints(t *testing.T) {
	ready := true
	srv := httptest.NewServer(NewServer("", ServerOptions{
		Ready: func() bool { return ready },
	}).Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Errorf("/healthz: %d, want 200", got)
	}
	if got := get("/readyz"); got != 200 {
		t.Errorf("/readyz while ready: %d, want 200", got)
	}
	ready = false
	if got := get("/healthz"); got != 200 {
		t.Errorf("/healthz while draining: %d, want 200 (liveness is unconditional)", got)
	}
	if got := get("/readyz"); got != 503 {
		t.Errorf("/readyz while draining: %d, want 503", got)
	}

	// Without a Ready hook readiness defaults to ready.
	plain := httptest.NewServer(NewServer("", ServerOptions{}).Handler())
	defer plain.Close()
	resp, err := plain.Client().Get(plain.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/readyz without hook: %d, want 200", resp.StatusCode)
	}
}

// TestLintOpenMetricsRejects: the lint must catch the malformed
// expositions `make check` guards against.
func TestLintOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{
			"missing EOF",
			"# TYPE foo gauge\nfoo 1\n",
			"EOF",
		},
		{
			"content after EOF",
			"# TYPE foo gauge\nfoo 1\n# EOF\nfoo 2\n",
			"after # EOF",
		},
		{
			"duplicate series",
			"# TYPE foo gauge\nfoo{a=\"1\"} 1\nfoo{a=\"1\"} 2\n# EOF\n",
			"duplicate",
		},
		{
			"counter without _total",
			"# TYPE foo counter\nfoo 1\n# EOF\n",
			"_total",
		},
		{
			"sample without TYPE",
			"foo 1\n# EOF\n",
			"TYPE",
		},
		{
			"duplicate TYPE",
			"# TYPE foo gauge\n# TYPE foo gauge\nfoo 1\n# EOF\n",
			"duplicate",
		},
		{
			"non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n# EOF\n",
			"cumulative",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := LintOpenMetrics(strings.NewReader(c.doc))
			if err == nil {
				t.Fatalf("lint accepted a document with %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}

	good := "# TYPE up gauge\nup 1\n# TYPE reqs_total counter\nreqs_total 3\n# EOF\n"
	if err := LintOpenMetrics(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected a valid document: %v", err)
	}
}
