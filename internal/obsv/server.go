package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"attila/internal/core"
	"attila/internal/obsv/trace"
)

// ServerOptions wires the status server to the run's observability
// sources. Any field may be nil; the matching endpoint then reports
// 404 Not Found.
type ServerOptions struct {
	// Bus serves /metrics and /progress.
	Bus *Bus
	// Profiler serves /profile (the ranked host-time table as JSON).
	Profiler *Profiler
	// Crash returns the black-box report of a failed run (typically
	// Simulator.Crash); /crash answers 404 until it returns non-nil.
	Crash func() *core.CrashReport
	// Manifest, when non-nil, is served under /manifest.
	Manifest func() *Manifest
	// Checkpoint, when non-nil, is served under /checkpoint: the live
	// checkpoint engine's progress and this run's restore provenance.
	Checkpoint func() *CheckpointStatus
	// Spans, when non-nil, is the span collector: /spans serves the
	// retained sampled spans as NDJSON, and /metrics.prom includes the
	// latency histograms.
	Spans *trace.Collector
}

// Server is the attilasim status server: a plain stdlib HTTP server
// exposing the live run. Endpoints:
//
//	/            index
//	/metrics     windowed metrics as NDJSON (?last=N limits windows)
//	/progress    cycle, frames, rates, watchdog fingerprint, ETA
//	/crash       black-box report of a failed run (404 while healthy)
//	/profile     ranked per-box host-time attribution
//	/manifest    the run manifest
//	/checkpoint  checkpoint engine progress and restore provenance
//	/debug/pprof the standard Go profiling endpoints
type Server struct {
	opts ServerOptions
	srv  *http.Server
	ln   net.Listener
}

// NewServer builds a status server for addr (e.g. ":6060"). Call
// Start to begin serving; Handler is independently usable in tests.
func NewServer(addr string, opts ServerOptions) *Server {
	s := &Server{opts: opts}
	s.srv = &http.Server{
		Addr:    addr,
		Handler: s.Handler(),
		// A client that dribbles its request header one byte at a time
		// (slow loris) must not be able to pin a connection open
		// forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the routing handler serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/crash", s.handleCrash)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/manifest", s.handleManifest)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds the address and serves in a background goroutine. The
// bind happens synchronously so an occupied port fails here, not
// later.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		// ErrServerClosed on shutdown is the expected exit.
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.srv.Addr
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, waiting briefly for in-flight
// requests.
func (s *Server) Close() error {
	return s.srv.Shutdown(context.Background())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "attilasim status server")
	fmt.Fprintln(w, "  /metrics      windowed metrics (NDJSON, ?last=N)")
	fmt.Fprintln(w, "  /metrics.prom cumulative metrics, OpenMetrics text format")
	fmt.Fprintln(w, "  /progress     cycle, frames, rates, watchdog, ETA")
	fmt.Fprintln(w, "  /spans        sampled request spans (NDJSON)")
	fmt.Fprintln(w, "  /crash        black-box report of a failed run")
	fmt.Fprintln(w, "  /profile      per-box host-time attribution")
	fmt.Fprintln(w, "  /manifest     run manifest")
	fmt.Fprintln(w, "  /checkpoint   checkpoint engine progress and restore provenance")
	fmt.Fprintln(w, "  /healthz      liveness probe")
	fmt.Fprintln(w, "  /readyz       readiness probe")
	fmt.Fprintln(w, "  /debug/pprof  Go profiling")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.Bus == nil {
		http.Error(w, "no metrics bus attached", http.StatusNotFound)
		return
	}
	samples := s.opts.Bus.Snapshot()
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad last parameter", http.StatusBadRequest)
			return
		}
		if len(samples) > n {
			samples = samples[len(samples)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = writeNDJSON(w, samples)
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	if s.opts.Bus == nil && s.opts.Spans == nil {
		http.Error(w, "no metrics bus or span collector attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_ = WriteOpenMetrics(w, s.opts.Bus, s.opts.Spans)
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.opts.Spans == nil {
		http.Error(w, "no span collector attached (run with -trace-sample)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.opts.Spans.WriteSpansNDJSON(w)
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: a serving status server is
// ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if s.opts.Bus == nil {
		http.Error(w, "no metrics bus attached", http.StatusNotFound)
		return
	}
	writeJSON(w, s.opts.Bus.Progress())
}

func (s *Server) handleCrash(w http.ResponseWriter, r *http.Request) {
	if s.opts.Crash == nil {
		http.Error(w, "no crash source attached", http.StatusNotFound)
		return
	}
	rep := s.opts.Crash()
	if rep == nil {
		http.Error(w, "no crash recorded", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rep.WriteJSON(w)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.opts.Profiler == nil {
		http.Error(w, "no profiler attached (run with -profile-boxes)", http.StatusNotFound)
		return
	}
	writeJSON(w, s.opts.Profiler.Report())
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if s.opts.Manifest == nil {
		http.Error(w, "no manifest attached", http.StatusNotFound)
		return
	}
	m := s.opts.Manifest()
	if m == nil {
		http.Error(w, "no manifest recorded", http.StatusNotFound)
		return
	}
	writeJSON(w, m)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.opts.Checkpoint == nil {
		http.Error(w, "no checkpoint engine attached (run with -checkpoint-interval)", http.StatusNotFound)
		return
	}
	st := s.opts.Checkpoint()
	if st == nil {
		http.Error(w, "no checkpoint state recorded", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
