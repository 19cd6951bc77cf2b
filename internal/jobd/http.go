package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler exposes the job server over HTTP. The routes (mounted under
// the obsv status server or standalone):
//
//	POST   /jobs               submit one job (JobSpec JSON) → 202
//	GET    /jobs               list all jobs
//	GET    /jobs/{ref}         one job by name or ID
//	GET    /jobs/{ref}/progress  live cycle/checkpoint progress
//	GET    /jobs/{ref}/crash   black-box report of the last failed attempt
//	GET    /jobs/{ref}/spans   sampled request spans of a completed job (NDJSON)
//	POST   /jobs/{ref}/cancel  cancel (also DELETE /jobs/{ref})
//	POST   /sweeps             submit a sweep (SweepSpec JSON) → 202
//	GET    /sweeps             list sweeps
//	GET    /sweeps/{ref}       one sweep with per-job detail
//	GET    /fleet/metrics      per-client latency histograms merged across jobs
//
// Admission control maps to status codes: a full queue is 429 with a
// Retry-After hint, a draining server is 503, a duplicate name 409.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{ref}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.JobStatus(r.PathValue("ref"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{ref}/progress", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.JobStatus(r.PathValue("ref"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"name": st.Name, "state": st.State,
			"cycle": st.Cycle, "checkpointCycle": st.CheckpointCycle,
			"attempts": st.Attempts, "preemptions": st.Preemptions,
		})
	})
	mux.HandleFunc("GET /jobs/{ref}/crash", func(w http.ResponseWriter, r *http.Request) {
		crash, err := s.JobCrash(r.PathValue("ref"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		if crash == nil {
			s.writeError(w, fmt.Errorf("%w: job %q has no crash report", ErrNotFound, r.PathValue("ref")))
			return
		}
		writeJSON(w, http.StatusOK, crash)
	})
	mux.HandleFunc("GET /jobs/{ref}/spans", func(w http.ResponseWriter, r *http.Request) {
		dump, err := s.JobSpans(r.PathValue("ref"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		if dump == nil {
			s.writeError(w, fmt.Errorf("%w: job %q has no span dump (tracing off or not finished)", ErrNotFound, r.PathValue("ref")))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(dump)
	})
	cancel := func(w http.ResponseWriter, r *http.Request) {
		ref := r.PathValue("ref")
		if err := s.CancelJob(ref); err != nil {
			s.writeError(w, err)
			return
		}
		st, _ := s.JobStatus(ref)
		writeJSON(w, http.StatusOK, st)
	}
	mux.HandleFunc("POST /jobs/{ref}/cancel", cancel)
	mux.HandleFunc("DELETE /jobs/{ref}", cancel)

	mux.HandleFunc("GET /sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Sweeps())
	})
	mux.HandleFunc("POST /sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /sweeps/{ref}", func(w http.ResponseWriter, r *http.Request) {
		sw, err := s.SweepByRef(r.PathValue("ref"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.SweepStatus(sw))
	})
	mux.HandleFunc("GET /fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.FleetMetrics())
	})
	return mux
}

// maxSubmitBody bounds submit request bodies: no legitimate job or
// sweep spec approaches 1 MiB, and an unbounded decoder would let one
// client exhaust server memory.
const maxSubmitBody = 1 << 20

// decodeBody decodes a bounded JSON request body, distinguishing an
// oversized body (413) from malformed JSON (400).
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, what+" too large", http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad "+what+": "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec, "job spec") {
		return
	}
	j, err := s.SubmitJob(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.ID, "name": j.Spec.Name})
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !decodeBody(w, r, &spec, "sweep spec") {
		return
	}
	sw, err := s.SubmitSweep(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": sw.ID, "name": sw.Name, "jobs": len(sw.jobs)})
}

// writeError maps the typed submit/lookup errors to HTTP codes.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterHint()))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "30")
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDuplicate):
		code = http.StatusConflict
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

// retryAfterHint estimates (in seconds) when queue capacity may free
// up: one slot per worker, scaled by backlog, clamped to [1, 60].
func (s *Server) retryAfterHint() int {
	queued := int(s.queueLen.Load())
	hint := 1 + queued/s.opts.Workers
	if hint > 60 {
		hint = 60
	}
	if hint < 1 {
		hint = 1
	}
	return hint
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
