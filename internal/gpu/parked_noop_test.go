package gpu_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/obsv"
	"attila/internal/workload"
)

// everyBox is a clock gate that lets every clock through. While a gate
// is installed no box parks and no counter accrues, so a gated run is
// the every-box-every-cycle loop the parking one must be
// indistinguishable from.
type everyBox struct{}

func (everyBox) BeforeClock(int64, core.Box) bool { return true }

// buildGolden assembles a golden scene at the golden size.
func buildGolden(t *testing.T, c goldenScene, cfg gpu.Config) (*gpu.Pipeline, []gpu.Command) {
	t.Helper()
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
	return pipe, cmds
}

// A box parks only where further clocks would change nothing but the
// stall counters it sleeps through, and those accrue: so clocking the
// parked boxes anyway must change nothing any reader sees, on every
// TestGoldenFrames scene — frames, cycle count, statistics summary,
// every statistic at every barrier (what an interval CSV at interval 1
// holds: a counter credited one cycle late shows), the interval CSV
// itself, the metrics bus's NDJSON under a frozen clock, and the bytes
// of every checkpoint captured on the way, watchdog fingerprint
// included. TestParkingWithQueuedItemIsCaught shows the comparison
// catches a box that parks too soon.
//
// The CSV's own interval is 1 on the scenes short enough to hold their
// rows (a row is one float per statistic; ut2004-3f at interval 1 would
// keep 250 MB of them, twice) and 200 on the others: the per-barrier
// hash is the interval-1 comparison on all of them.
func TestParkedClockIsNoOp(t *testing.T) {
	// The golden scenes, and one with dedicated vertex shaders.
	for _, c := range append(goldenScenes[:len(goldenScenes):len(goldenScenes)],
		goldenScene{"baseline-split", "ut2004", gpu.Baseline(), 0, 1}) {
		t.Run(c.name, func(t *testing.T) {
			type outputs struct {
				cycles               int64
				frames               [][]byte
				summary, csv, ndjson bytes.Buffer
				barriers             uint64 // hash of every statistic at every barrier
				captures             []capture
			}
			run := func(allAwake bool) *outputs {
				cfg := c.cfg
				cfg.Workers = c.workers
				cfg.WatchdogWindow = supervisedWindow
				cfg.StatInterval = 200
				if c.generator == "spinner" {
					cfg.StatInterval = 1
				}
				pipe, cmds := buildGolden(t, c, cfg)
				if allAwake {
					pipe.Sim.SetClockGate(everyBox{})
				}
				now := time.Unix(1000, 0)
				bus := obsv.NewBus(pipe.Sim, obsv.BusOptions{
					Window: 250, Depth: 2048,
					Frames: func() int64 { return int64(pipe.CP.Frames()) },
					Now: func() time.Time {
						now = now.Add(time.Millisecond)
						return now
					},
				})
				path := filepath.Join(t.TempDir(), "scene.ckpt")
				eng := pipe.EnableCheckpoints(path, c.generator, 4000, bus)

				out := &outputs{}
				var stats []core.Stat
				for _, name := range pipe.Sim.Stats.Names() {
					stats = append(stats, pipe.Sim.Stats.Lookup(name))
				}
				h := fnv.New64a()
				var seen int64
				pipe.Sim.OnEndCycle(func(cycle int64) {
					var b [8]byte
					for _, s := range stats {
						v := math.Float64bits(s.Value())
						for i := range b {
							b[i] = byte(v >> (8 * i))
						}
						h.Write(b[:])
					}
					if n := eng.Count(); n != seen {
						seen = n
						file, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						out.captures = append(out.captures, capture{eng.LastCycle(), file})
					}
				})
				if err := pipe.Run(cmds, 500_000_000); err != nil {
					t.Fatal(err)
				}
				if err := eng.Err(); err != nil {
					t.Fatal(err)
				}
				out.cycles, out.barriers = pipe.Cycles(), h.Sum64()
				for _, f := range pipe.Frames() {
					out.frames = append(out.frames, f.Pix)
				}
				if err := pipe.DumpStats(&out.summary); err != nil {
					t.Fatal(err)
				}
				if err := pipe.DumpCSV(&out.csv); err != nil {
					t.Fatal(err)
				}
				bus.Flush()
				if err := bus.WriteNDJSON(&out.ndjson); err != nil {
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
			if parked.barriers != awake.barriers {
				t.Error("some statistic at some barrier differs with every box clocked")
			}
			if !bytes.Equal(parked.csv.Bytes(), awake.csv.Bytes()) {
				t.Error("interval CSV differs with every box clocked")
			}
			if parked.ndjson.Len() == 0 || !bytes.Equal(parked.ndjson.Bytes(), awake.ndjson.Bytes()) {
				t.Errorf("metrics NDJSON (%d bytes) differs with every box clocked", parked.ndjson.Len())
			}
			if len(parked.captures) == 0 || len(parked.captures) != len(awake.captures) {
				t.Fatalf("%d checkpoints captured, %d with every box clocked", len(parked.captures), len(awake.captures))
			}
			for i, cp := range parked.captures {
				if cp.cycle != awake.captures[i].cycle || !bytes.Equal(cp.file, awake.captures[i].file) {
					t.Errorf("checkpoint %d (cycle %d) differs from the one at cycle %d with every box clocked",
						i, cp.cycle, awake.captures[i].cycle)
				}
			}
		})
	}
}

// stallWatch counts, per box, its Clock calls and how many of its
// stall cycles a Clock of its own counted: the counter read right after
// a Clock, less what it read at the barrier before — the fold of the
// cycles slept through has happened by then, so the difference is that
// Clock's own increment. Serial runs only.
type stallWatch struct {
	counter map[string]core.Stat
	barrier map[string]float64 // counter at the last barrier
	clocks  map[string]int64
	self    map[string]float64
}

func (w *stallWatch) BoxClocked(b core.Box, _ int64) {
	box := b.BoxName()
	w.clocks[box]++
	if c := w.counter[box]; c != nil {
		w.self[box] += c.Value() - w.barrier[box]
	}
}

func (w *stallWatch) endCycle(int64) {
	for box, c := range w.counter {
		w.barrier[box] = c.Value()
	}
}

// The invariant the stall states are parked for, asserted directly on
// the doom3 and spinner golden scenes, every Clock observed: a box
// sleeps through the cycles its stall counter counts. Of a shader's
// texWaitCycles, a ROP's stallCycles and a texture unit's
// missStallCycles at most a fifth are counted by a Clock of the box (the
// one that starts each stall, and those after a park refused for an
// input in flight) — at 626197c all of them were, which is why those
// boxes stayed awake; and each of them, and the FragmentFIFO against its
// windowFullCycles (which it also counts on cycles it moves work), is
// clocked on at most cycles − 0.8 × counter of the cycles.
func TestStalledBoxesSleep(t *testing.T) {
	for _, c := range goldenScenes {
		if c.name != "doom3-stencil" && c.name != "spinner-geom" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			pipe, cmds := buildGolden(t, c, c.cfg)
			w := &stallWatch{
				counter: map[string]core.Stat{}, barrier: map[string]float64{},
				clocks: map[string]int64{}, self: map[string]float64{},
			}
			for _, b := range pipe.Sim.Boxes() {
				box := b.BoxName()
				switch {
				case strings.HasPrefix(box, "Shader"):
					w.counter[box] = pipe.Sim.Stats.Lookup(box + ".texWaitCycles")
				case strings.HasPrefix(box, "ZStencil"), strings.HasPrefix(box, "ColorWrite"):
					w.counter[box] = pipe.Sim.Stats.Lookup(box + ".stallCycles")
				case strings.HasPrefix(box, "TextureUnit"):
					w.counter[box] = pipe.Sim.Stats.Lookup(box + ".missStallCycles")
				case box == "FragmentFIFO":
					w.counter[box] = pipe.Sim.Stats.Lookup("FFIFO.windowFullCycles")
				}
			}
			pipe.Sim.SetClockObserver(w, 1)
			pipe.Sim.OnEndCycle(w.endCycle)
			if err := pipe.Run(cmds, 500_000_000); err != nil {
				t.Fatal(err)
			}
			cycles := pipe.Cycles()
			held := 0
			for box, counter := range w.counter {
				stalled := counter.Value()
				if limit := cycles - int64(stalled*0.8); w.clocks[box] > limit {
					t.Errorf("%s clocked on %d of %d cycles with %s = %v: want at most %d",
						box, w.clocks[box], cycles, counter.StatName(), stalled, limit)
				}
				if box == "FragmentFIFO" || stalled < 1000 {
					continue
				}
				held++
				if w.self[box] > 0.2*stalled {
					t.Errorf("%s counted %v of its %v %s by being clocked: want at most a fifth",
						box, w.self[box], stalled, counter.StatName())
				}
			}
			if held < 3 {
				t.Errorf("%d boxes stalled for 1000 cycles or more: the scene shows too little", held)
			}
		})
	}
}

// pollWatch counts every box's Clock calls, and the command
// processor's apart from those that leave it streaming.
type pollWatch struct {
	cp      *gpu.CommandProcessor
	clocks  map[string]int64
	streams int64
}

func (w *pollWatch) BoxClocked(b core.Box, _ int64) {
	w.clocks[b.BoxName()]++
	if b == core.Box(w.cp) && w.cp.Streaming() {
		w.streams++
	}
}

// The boxes that used to poll sleep until what they wait for announces
// itself, on the doom3 and spinner golden scenes, every Clock observed.
// The command processor (woken by batch retirement, clear/flush/dump
// completion, the texture units' quiesce flag, draw credit, its port)
// is clocked on at most a tenth of the cycles it does not spend
// streaming uploads — at 693c4de it was clocked on all of them — and
// triangle setup (woken by the batch ahead of its next triangle
// retiring) on at most a tenth of all cycles; the memory controller on
// fewer cycles than it has a channel busy, which it sleeps through
// towards the next completion.
func TestPollersSleep(t *testing.T) {
	for _, c := range goldenScenes {
		if c.name != "doom3-stencil" && c.name != "spinner-geom" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.WatchdogWindow = 1_000_000 // a missed wake fails here, not at the cycle limit
			pipe, cmds := buildGolden(t, c, cfg)
			w := &pollWatch{cp: pipe.CP, clocks: map[string]int64{}}
			pipe.Sim.SetClockObserver(w, 1)
			if err := pipe.Run(cmds, 500_000_000); err != nil {
				t.Fatal(err)
			}
			cycles := pipe.Cycles()
			if polls, quiet := w.clocks["CommandProcessor"]-w.streams, cycles-w.streams; polls*10 > quiet {
				t.Errorf("CommandProcessor clocked on %d of the %d cycles it was not streaming: want at most a tenth", polls, quiet)
			}
			if n := w.clocks["TriangleSetup"]; n*10 > cycles {
				t.Errorf("TriangleSetup clocked on %d of %d cycles: want at most a tenth", n, cycles)
			}
			busy := pipe.Sim.Stats.Lookup("MC.busyCycles").Value()
			if n := w.clocks["MemoryController"]; float64(n) >= busy {
				t.Errorf("MemoryController clocked on %d cycles with a channel busy on %v: want fewer", n, busy)
			}
			t.Logf("of %d cycles: CommandProcessor %d (%d streaming), TriangleSetup %d, MemoryController %d (busy %v)",
				cycles, w.clocks["CommandProcessor"], w.streams, w.clocks["TriangleSetup"], w.clocks["MemoryController"], busy)
		})
	}
}
