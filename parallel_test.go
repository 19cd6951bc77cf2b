package attila_test

// gpu.Config.Workers is a vestige of the parallel clock loop (ROADMAP
// item 7 retires it, and these tests with it): a run configured for N
// workers is the serial run — same cycle count, byte-identical
// statistics CSV and summary, bit-identical rendered frames, and the
// same metrics NDJSON.

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/workload"
)

// runFingerprint reduces a finished pipeline to everything an
// experiment can observe: cycles, both stats dumps, and a hash over
// every rendered frame.
type runFingerprint struct {
	cycles  int64
	csv     []byte
	summary []byte
	frames  [32]byte
}

func fingerprint(t *testing.T, workers int, workload string) runFingerprint {
	t.Helper()
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.Workers = workers
	pipe := runWorkloadOnce(t, cfg, workload, p)
	var fp runFingerprint
	fp.cycles = pipe.Cycles()
	var csv, sum bytes.Buffer
	if err := pipe.DumpCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := pipe.DumpStats(&sum); err != nil {
		t.Fatal(err)
	}
	fp.csv = csv.Bytes()
	fp.summary = sum.Bytes()
	h := sha256.New()
	for _, fr := range pipe.Frames() {
		if err := fr.WritePPM(h); err != nil {
			t.Fatal(err)
		}
	}
	h.Sum(fp.frames[:0])
	return fp
}

// metricsNDJSON runs a workload with the observability bus attached
// (plus the watchdog, so the fingerprint field is exercised) and
// returns the exported NDJSON. The injected clock advances a fixed
// step per reading, so the wall-clock fields are reproducible and the
// whole byte stream must be a pure function of simulation state.
func metricsNDJSON(t *testing.T, workers int, workloadName string) []byte {
	t.Helper()
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.Workers = workers
	cfg.WatchdogWindow = 1_000_000
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	bus := obsv.NewBus(pipe.Sim, obsv.BusOptions{
		Window: 10000,
		Frames: func() int64 { return int64(pipe.CP.Frames()) },
		Goal:   p.MaxCycles,
		Now: func() time.Time {
			now = now.Add(time.Millisecond)
			return now
		},
	})
	cmds, _, err := workload.Build(workloadName, pipe, workload.Params{
		Width: p.Width, Height: p.Height, Frames: p.Frames, Aniso: p.Aniso, Seed: p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Run(cmds, p.MaxCycles); err != nil {
		t.Fatal(err)
	}
	bus.Flush()
	var buf bytes.Buffer
	if err := bus.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The metrics bus's NDJSON export is byte-identical for any (ignored)
// worker count, like the stats CSV and the rendered frames.
func TestParallelMetricsNDJSON(t *testing.T) {
	serial := metricsNDJSON(t, 0, "simple")
	if len(bytes.TrimSpace(serial)) == 0 {
		t.Fatal("no metrics windows exported")
	}
	for _, workers := range []int{2, 4} {
		par := metricsNDJSON(t, workers, "simple")
		if !bytes.Equal(par, serial) {
			t.Errorf("workers=%d: metrics NDJSON differs from serial\nserial: %.200s\npar:    %.200s",
				workers, serial, par)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, workload := range []string{"simple", "ut2004"} {
		t.Run(workload, func(t *testing.T) {
			serial := fingerprint(t, 0, workload)
			if len(serial.frames) == 0 {
				t.Fatal("no frames rendered")
			}
			for _, workers := range []int{2, 3, 4} {
				par := fingerprint(t, workers, workload)
				if par.cycles != serial.cycles {
					t.Errorf("workers=%d: %d cycles, serial %d", workers, par.cycles, serial.cycles)
				}
				if !bytes.Equal(par.csv, serial.csv) {
					t.Errorf("workers=%d: stats CSV differs from serial", workers)
				}
				if !bytes.Equal(par.summary, serial.summary) {
					t.Errorf("workers=%d: stats summary differs from serial", workers)
				}
				if par.frames != serial.frames {
					t.Errorf("workers=%d: frame hash %x, serial %x", workers, par.frames, serial.frames)
				}
			}
		})
	}
}
