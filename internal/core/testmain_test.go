package core

import (
	"os"
	"runtime"
	"testing"
)

// TestMain raises GOMAXPROCS so the parallel clock-loop tests shard
// for real on single-CPU hosts: resolveWorkers clamps requests to
// GOMAXPROCS, so without the bump every multi-worker test would
// silently run serial and the spin barrier and crash propagation
// paths would go unexercised under -race.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}
