package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrPanic matches (via errors.Is) the error Run returns when a box
// panicked with anything other than a *SimError.
var ErrPanic = errors.New("core: box panic")

// ErrCanceled matches (via errors.Is) the error Run returns when the
// run was stopped by Simulator.Stop or a canceled context before
// completing.
var ErrCanceled = errors.New("core: run canceled")

// CrashError is a box panic recovered by the clock loop: the
// simulator's black box records which box failed at which cycle, with
// the panicking goroutine's stack. It unwraps to ErrPanic.
type CrashError struct {
	Box   string // failing box, "" when the panic escaped a hook or predicate
	Cycle int64
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine
}

// Error implements error.
func (e *CrashError) Error() string {
	where := e.Box
	if where == "" {
		where = "coordinator"
	}
	return fmt.Sprintf("core: panic in %s at cycle %d: %v", where, e.Cycle, e.Value)
}

// Unwrap makes errors.Is(err, ErrPanic) true.
func (e *CrashError) Unwrap() error { return ErrPanic }

// FlightEvent is one entry of the crash flight recorder: something
// the machine was doing shortly before it failed. The observability
// layer (a span collector, typically) supplies them through
// Simulator.SetFlightRecorder; core defines only the record so the
// black box stays dependency-free.
type FlightEvent struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"` // "span", "note", ...
	What  string `json:"what"`
}

// CrashReport is the black-box record a failed run leaves behind:
// enough to diagnose the failure without rerunning a multi-hour
// simulation. Run builds one for every non-completion outcome except
// the plain cycle-limit budget; tools persist it with WriteJSON.
type CrashReport struct {
	Kind     string             `json:"kind"` // "panic", "model", "deadlock" or "canceled"
	Box      string             `json:"box,omitempty"`
	Cycle    int64              `json:"cycle"`
	Err      string             `json:"error"`
	Stack    string             `json:"stack,omitempty"`
	Stats    map[string]float64 `json:"stats,omitempty"` // cumulative statistics at failure
	Deadlock *DeadlockReport    `json:"deadlock,omitempty"`
	// Flight is the flight recorder: the last span terminations and
	// structured events before the failure, so the report shows what
	// the machine was doing, not just where it stopped.
	Flight []FlightEvent `json:"flight,omitempty"`
}

// WriteJSON serializes the report, indented for humans.
func (r *CrashReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile persists the report to path (the conventional black-box
// file tools write next to their outputs).
func (r *CrashReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildCrashReport classifies a Run error into the black-box record,
// snapshotting the statistics. Cycle-limit exhaustion and nil errors
// produce no report.
func (s *Simulator) buildCrashReport(err error) *CrashReport {
	if err == nil || errors.Is(err, ErrCycleLimit) {
		return nil
	}
	r := &CrashReport{Cycle: s.cycle, Err: err.Error(), Stats: s.Stats.Snapshot()}
	var ce *CrashError
	var se *SimError
	var de *DeadlockError
	switch {
	case errors.As(err, &ce):
		r.Kind = "panic"
		r.Box = ce.Box
		r.Cycle = ce.Cycle
		r.Stack = string(ce.Stack)
	case errors.As(err, &se):
		r.Kind = "model"
		r.Box = se.Where
		r.Cycle = se.Cycle
	case errors.As(err, &de):
		r.Kind = "deadlock"
		r.Deadlock = de.Report
	case errors.Is(err, ErrCanceled):
		r.Kind = "canceled"
	default:
		return nil // configuration errors (binder validation) need no black box
	}
	if s.flight != nil {
		r.Flight = s.flight(flightDepth)
	}
	return r
}

// flightDepth is how many flight-recorder events a crash report
// embeds.
const flightDepth = 64

// SetFlightRecorder installs the flight-recorder source consulted
// when a crash report is built: fn returns the last max events,
// oldest first. Call before Run; nil clears it.
func (s *Simulator) SetFlightRecorder(fn func(max int) []FlightEvent) { s.flight = fn }

// Crash returns the black-box report of the most recent failed Run,
// or nil after a clean completion (or plain cycle-limit exhaustion).
func (s *Simulator) Crash() *CrashReport { return s.crash }
