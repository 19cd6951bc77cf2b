package attila_test

// Golden checkpoint/restore round trips: capture the full machine
// state at a quiesced mid-run barrier, restore it into a freshly
// built pipeline, run to completion, and require every observable —
// stats CSV, stats summary, rendered frame hashes, metrics NDJSON —
// to be byte-identical to the uninterrupted run. The parallel4 rows
// set the ignored Workers: 4 (ROADMAP item 7) on one side or both: a
// checkpoint from a config that asked for workers — as old ones did —
// restores like any other.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/workload"
)

// ckptHarness is one instrumented pipeline: metrics bus with a frozen
// clock (wall-time fields become constants, so NDJSON is a pure
// function of simulation state) and the watchdog armed to exercise
// fingerprint continuity across the restore.
type ckptHarness struct {
	pipe *gpu.Pipeline
	bus  *obsv.Bus
	cmds []gpu.Command
}

func newCkptHarness(t *testing.T, workers int) *ckptHarness {
	t.Helper()
	p := benchParams()
	cfg := gpu.Baseline()
	cfg.Workers = workers
	cfg.WatchdogWindow = 1_000_000
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Unix(1000, 0)
	bus := obsv.NewBus(pipe.Sim, obsv.BusOptions{
		Window: 10000,
		Frames: func() int64 { return int64(pipe.CP.Frames()) },
		Goal:   p.MaxCycles,
		Now:    func() time.Time { return frozen },
	})
	// Quiesced barriers occur at batch drains — about once per frame —
	// so a multi-frame workload is needed for a genuinely mid-run
	// capture point.
	cmds, _, err := workload.Build("simple", pipe, workload.Params{
		Width: p.Width, Height: p.Height, Frames: 3, Aniso: p.Aniso, Seed: p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ckptHarness{pipe: pipe, bus: bus, cmds: cmds}
}

// observe reduces a finished harness to everything a run exports.
func (h *ckptHarness) observe(t *testing.T) (fp runFingerprint, ndjson []byte) {
	t.Helper()
	h.bus.Flush()
	fp.cycles = h.pipe.Cycles()
	var csv, sum, nd bytes.Buffer
	if err := h.pipe.DumpCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := h.pipe.DumpStats(&sum); err != nil {
		t.Fatal(err)
	}
	if err := h.bus.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	fp.csv = csv.Bytes()
	fp.summary = sum.Bytes()
	hash := sha256.New()
	for _, fr := range h.pipe.Frames() {
		if err := fr.WritePPM(hash); err != nil {
			t.Fatal(err)
		}
	}
	hash.Sum(fp.frames[:0])
	return fp, nd.Bytes()
}

// totalCyclesOnce learns the run length of the test workload so the
// capture point can sit mid-run.
var ckptTotalCycles int64

func ckptRunLength(t *testing.T) int64 {
	t.Helper()
	if ckptTotalCycles == 0 {
		h := newCkptHarness(t, 0)
		if err := h.pipe.Run(h.cmds, benchParams().MaxCycles); err != nil {
			t.Fatal(err)
		}
		ckptTotalCycles = h.pipe.Cycles()
	}
	return ckptTotalCycles
}

func TestCheckpointRoundTrip(t *testing.T) {
	captureAt := ckptRunLength(t) / 3
	if captureAt == 0 {
		t.Fatal("workload too short to checkpoint mid-run")
	}
	cases := []struct {
		name                   string
		capWorkers, resWorkers int
	}{
		{"serial-to-serial", 0, 0},
		{"serial-to-parallel4", 0, 4},
		{"parallel4-to-parallel4", 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference run: uninterrupted, but with a checkpoint
			// captured (and serialized through the container) at the
			// first quiesced barrier past captureAt. Capturing must not
			// perturb the run.
			ref := newCkptHarness(t, tc.capWorkers)
			var snapBytes []byte
			ref.pipe.Sim.OnEndCycle(func(cycle int64) {
				if snapBytes != nil || cycle < captureAt || !ref.pipe.Quiesced() {
					return
				}
				meta := chkpt.Meta{
					Cycle:    ref.pipe.Sim.Cycle(),
					Config:   ref.pipe.ConfigFingerprint(),
					Workload: "simple",
				}
				snap := chkpt.Capture(meta, append(ref.pipe.Snapshotters(), ref.bus))
				var buf bytes.Buffer
				if err := snap.Encode(&buf); err != nil {
					t.Errorf("encode checkpoint: %v", err)
					return
				}
				snapBytes = buf.Bytes()
			})
			if err := ref.pipe.Run(ref.cmds, benchParams().MaxCycles); err != nil {
				t.Fatal(err)
			}
			refFP, refND := ref.observe(t)
			if snapBytes == nil {
				t.Fatalf("no quiesced barrier after cycle %d in a %d-cycle run", captureAt, refFP.cycles)
			}

			// Resumed run: fresh machine, restore, run to completion.
			res := newCkptHarness(t, tc.resWorkers)
			snap, err := chkpt.Read(bytes.NewReader(snapBytes))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Meta.Cycle >= refFP.cycles {
				t.Fatalf("checkpoint at cycle %d is not mid-run (total %d)", snap.Meta.Cycle, refFP.cycles)
			}
			if err := res.pipe.RestoreCheckpoint(snap, res.cmds, res.bus); err != nil {
				t.Fatal(err)
			}
			if err := res.pipe.ResumeContext(context.Background(), benchParams().MaxCycles); err != nil {
				t.Fatal(err)
			}
			resFP, resND := res.observe(t)

			if resFP.cycles != refFP.cycles {
				t.Errorf("resumed run: %d cycles, uninterrupted %d", resFP.cycles, refFP.cycles)
			}
			if !bytes.Equal(resFP.csv, refFP.csv) {
				t.Error("stats CSV differs after restore")
			}
			if !bytes.Equal(resFP.summary, refFP.summary) {
				t.Error("stats summary differs after restore")
			}
			if resFP.frames != refFP.frames {
				t.Errorf("frame hash %x after restore, want %x", resFP.frames, refFP.frames)
			}
			if !bytes.Equal(resND, refND) {
				refLines := bytes.Split(refND, []byte("\n"))
				resLines := bytes.Split(resND, []byte("\n"))
				for i := 0; i < len(refLines) || i < len(resLines); i++ {
					var a, b []byte
					if i < len(refLines) {
						a = refLines[i]
					}
					if i < len(resLines) {
						b = resLines[i]
					}
					if !bytes.Equal(a, b) {
						p := 0
						for p < len(a) && p < len(b) && a[p] == b[p] {
							p++
						}
						if p > 60 {
							p -= 60
						} else {
							p = 0
						}
						t.Errorf("metrics NDJSON differs after restore (line %d, byte %d)\nref: …%.400s\nres: …%.400s", i, p, a[p:], b[p:])
						break
					}
				}
			}
		})
	}
}

// TestCheckpointConfigGuard: restoring into a differently configured
// machine must be refused with a typed mismatch, not misapplied.
func TestCheckpointConfigGuard(t *testing.T) {
	h := newCkptHarness(t, 0)
	// Capture at cycle 0 — the machine is trivially quiesced before
	// the run starts.
	snap, err := h.pipe.Checkpoint("simple")
	if err != nil {
		t.Fatal(err)
	}
	other := gpu.Baseline()
	other.NumShaders++
	p := benchParams()
	pipe2, err := gpu.New(other, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe2.RestoreCheckpoint(snap, nil); err == nil {
		t.Fatal("restore into a different configuration succeeded")
	}
}
