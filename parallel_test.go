package attila_test

// gpu.Config.Workers is a vestige of the parallel clock loop (ROADMAP
// item 7 retires it, and these tests with it): a run configured for N
// workers is the serial run — every output coretest.Record keeps, the
// metrics NDJSON included.

import (
	"bytes"
	"fmt"
	"testing"

	"attila/internal/core/coretest"
)

// The metrics bus's NDJSON export is byte-identical for any (ignored)
// worker count, like the stats CSV and the rendered frames.
func TestParallelMetricsNDJSON(t *testing.T) {
	run := coretest.Record(t, observed(t, "simple", 1, 0, 0, 0))
	_, serial := exports(run)
	if len(bytes.TrimSpace(serial)) == 0 || run.Err != "" {
		t.Fatalf("no metrics windows exported (%s)", run.Err)
	}
	for _, workers := range []int{2, 4} {
		if _, par := exports(coretest.Record(t, observed(t, "simple", 1, workers, 0, 0))); !bytes.Equal(par, serial) {
			t.Errorf("workers=%d: metrics NDJSON differs from serial", workers)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, workload := range []string{"simple", "ut2004"} {
		t.Run(workload, func(t *testing.T) {
			serial := coretest.Record(t, observed(t, workload, 1, 0, 0, 0))
			if len(serial.Frames) != 1+2 || serial.Err != "" {
				t.Fatalf("%d frames rendered (%s)", len(serial.Frames)-2, serial.Err)
			}
			for _, workers := range []int{2, 3, 4} {
				for _, d := range serial.Diff(fmt.Sprintf("with workers=%d", workers), coretest.Record(t, observed(t, workload, 1, workers, 0, 0))) {
					t.Error(d)
				}
			}
		})
	}
}
