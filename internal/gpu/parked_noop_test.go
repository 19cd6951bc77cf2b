package gpu_test

import (
	"bytes"
	"testing"

	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// everyBox is a clock gate that lets every clock through. While a gate
// is installed no box parks, so a gated run is the every-box-every-
// cycle loop the parking one must be indistinguishable from.
type everyBox struct{}

func (everyBox) BeforeClock(int64, core.Box) bool { return true }

// A box parks only where further clocks would change nothing, so
// clocking the parked boxes anyway must change nothing either: frames,
// cycle count, statistics summary and interval CSV (a fine interval, so
// a counter credited a few cycles late shows) byte-equal, on every
// TestGoldenFrames scene. TestParkingWithQueuedItemIsCaught shows the
// comparison catches a box that parks too soon.
func TestParkedClockIsNoOp(t *testing.T) {
	// The golden scenes, and one with dedicated vertex shaders.
	for _, c := range append(goldenScenes[:len(goldenScenes):len(goldenScenes)],
		goldenScene{"baseline-split", "ut2004", gpu.Baseline(), 2, 1}) {
		t.Run(c.name, func(t *testing.T) {
			type outputs struct {
				cycles       int64
				frames       [][]byte
				summary, csv bytes.Buffer
			}
			run := func(allAwake bool) *outputs {
				cfg := c.cfg
				cfg.Workers = c.workers
				cfg.StatInterval = 200
				pipe, err := gpu.New(cfg, 64, 48)
				if err != nil {
					t.Fatal(err)
				}
				cmds, _, err := workload.Build(c.generator, pipe, workload.Params{
					Width: 64, Height: 48, Frames: c.frames, Aniso: 8, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if allAwake {
					pipe.Sim.SetClockGate(everyBox{})
				}
				if err := pipe.Run(cmds, 500_000_000); err != nil {
					t.Fatal(err)
				}
				out := &outputs{cycles: pipe.Cycles()}
				for _, f := range pipe.Frames() {
					out.frames = append(out.frames, f.Pix)
				}
				if err := pipe.DumpStats(&out.summary); err != nil {
					t.Fatal(err)
				}
				if err := pipe.DumpCSV(&out.csv); err != nil {
					t.Fatal(err)
				}
				return out
			}
			parked, awake := run(false), run(true)
			if parked.cycles != awake.cycles {
				t.Errorf("%d cycles, %d with every box clocked", parked.cycles, awake.cycles)
			}
			if len(parked.frames) != c.frames || len(awake.frames) != c.frames {
				t.Fatalf("%d and %d frames, want %d", len(parked.frames), len(awake.frames), c.frames)
			}
			for i := range parked.frames {
				if !bytes.Equal(parked.frames[i], awake.frames[i]) {
					t.Errorf("frame %d differs with every box clocked", i)
				}
			}
			if !bytes.Equal(parked.summary.Bytes(), awake.summary.Bytes()) {
				t.Error("statistics summary differs with every box clocked")
			}
			if !bytes.Equal(parked.csv.Bytes(), awake.csv.Bytes()) {
				t.Error("interval CSV differs with every box clocked")
			}
		})
	}
}
