// Package coretest holds test helpers for code that runs the clock loop.
package coretest

import (
	"bytes"
	"runtime/pprof"
	"testing"
)

// Goroutines returns how many live goroutines code of this module
// started: those a goroutine profile shows as "created by attila/...".
// A run's context watcher and shader helper count; the test framework's
// goroutines and the runtime's own (the finalizer goroutine while it
// runs a finalizer, timers) do not, so the number moves only with what
// the code under test starts and stops.
func Goroutines(tb testing.TB) int {
	tb.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		tb.Fatal(err)
	}
	return bytes.Count(buf.Bytes(), []byte("\ncreated by attila/"))
}
