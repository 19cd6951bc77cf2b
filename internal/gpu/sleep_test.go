package gpu_test

import (
	"strings"
	"testing"

	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// buildGolden assembles a golden scene at the golden size.
func buildGolden(tb testing.TB, c goldenScene, cfg gpu.Config) (*gpu.Pipeline, []gpu.Command) {
	tb.Helper()
	pipe, err := gpu.New(cfg, 64, 48)
	if err != nil {
		tb.Fatal(err)
	}
	cmds, _, err := workload.Build(c.generator, pipe, workload.Params{
		Width: 64, Height: 48, Frames: c.frames, Aniso: 8, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return pipe, cmds
}

// clockWatch counts every box's Clock calls, the command processor's
// that leave it streaming, and, per box with a stall counter, how many
// of its stall cycles a Clock of its own counted: the counter read
// right after a Clock, less what it read at the barrier before — the
// fold of the cycles slept through has happened by then, so the
// difference is that Clock's own increment.
type clockWatch struct {
	cp            *gpu.CommandProcessor
	counter       map[string]core.Stat
	barrier, self map[string]float64 // counter at the last barrier
	clocks        map[string]int64
	streams       int64
}

func (w *clockWatch) BoxClocked(b core.Box, _ int64) {
	box := b.BoxName()
	w.clocks[box]++
	if c := w.counter[box]; c != nil {
		w.self[box] += c.Value() - w.barrier[box]
	}
	if b == core.Box(w.cp) && w.cp.Streaming() {
		w.streams++
	}
}

// watchClocks runs the doom3 and spinner golden scenes with every Clock
// observed, and hands each run to check.
func watchClocks(t *testing.T, check func(t *testing.T, pipe *gpu.Pipeline, w *clockWatch)) {
	for _, c := range goldenScenes {
		if c.name != "doom3-stencil" && c.name != "spinner-geom" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.WatchdogWindow = 1_000_000 // a missed wake fails here, not at the cycle limit
			pipe, cmds := buildGolden(t, c, cfg)
			w := &clockWatch{cp: pipe.CP, counter: map[string]core.Stat{}, barrier: map[string]float64{},
				self: map[string]float64{}, clocks: map[string]int64{}}
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
			pipe.Sim.OnEndCycle(func(int64) {
				for box, c := range w.counter {
					w.barrier[box] = c.Value()
				}
			})
			if err := pipe.Run(cmds, 500_000_000); err != nil {
				t.Fatal(err)
			}
			check(t, pipe, w)
		})
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
	watchClocks(t, func(t *testing.T, pipe *gpu.Pipeline, w *clockWatch) {
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
	watchClocks(t, func(t *testing.T, pipe *gpu.Pipeline, w *clockWatch) {
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
