package gpu_test

import (
	"testing"
	"unsafe"

	"attila/internal/core/coretest"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// checkPoolsDrained fails t unless every free list of the drained
// pipeline holds every object it made: a vertex group, shaded vertex,
// triangle, set-up triangle, quad, tile, input block or shader-work
// wrapper that no release site returned is missing from its list. It
// returns the bytes the pool made.
func checkPoolsDrained(t *testing.T, pipe *gpu.Pipeline) (bytes uintptr) {
	t.Helper()
	for _, k := range pipe.Pools() {
		if k.Idle != k.Made {
			t.Errorf("%s: %d of %d made are back at drain", k.Name, k.Idle, k.Made)
		}
		bytes += uintptr(k.Made) * k.Size
	}
	return bytes
}

// TestPipelinePoolsDrain runs scenes to their end, one of them
// restored from its middle checkpoint, and checks that every pooled
// object came back. On ut2004 at the benchmark's size it also bounds
// what the pool made: a quad no longer carries its 1 KiB of fragment
// inputs, and only the quads between the Interpolator and the
// FragmentFIFO's routing hold an input block, so the thousands of
// quads queued ahead of interpolation cost 184 bytes each. The pool
// made 2.05 MiB there: 1.64 MiB of fragment-path kinds and 0.41 MiB of
// geometry kinds, most of it the 391 set-up triangles that queued quads
// hold. Chaos runs are not drained here: a dropped object leaks by
// design.
func TestPipelinePoolsDrain(t *testing.T) {
	if size := unsafe.Sizeof(gpu.Quad{}); size > 192 {
		t.Errorf("a Quad is %d bytes, want <= 192: its inputs belong in a QuadInputs block", size)
	}
	scenes := []struct {
		generator string
		cfg       gpu.Config
		w, h, n   int
		maxBytes  uintptr // 0: not bounded
	}{
		{"ut2004", gpu.BaselineUnified(), 256, 192, 4, 9 << 18}, // 2.25 MiB: 2.05 measured + 10 %
		{"doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 320, 240, 3, 0},
		{"spinner", gpu.Embedded(), 256, 192, 48, 0},
	}
	for _, sc := range scenes {
		t.Run(sc.generator, func(t *testing.T) {
			pipe, err := gpu.New(sc.cfg, sc.w, sc.h)
			if err != nil {
				t.Fatal(err)
			}
			cmds, _, err := workload.Build(sc.generator, pipe, workload.Params{
				Width: sc.w, Height: sc.h, Frames: sc.n, Aniso: 8, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := pipe.Run(cmds, 500_000_000); err != nil {
				t.Fatal(err)
			}
			bytes := checkPoolsDrained(t, pipe)
			t.Logf("%d cycles, pool %.2f MiB: %+v", pipe.Cycles(), float64(bytes)/(1<<20), pipe.Pools())
			if sc.maxBytes > 0 && bytes > sc.maxBytes {
				t.Errorf("the pool made %d bytes, want <= %d", bytes, sc.maxBytes)
			}
		})
	}
	t.Run("render-to-texture", func(t *testing.T) {
		pipe, cmds := rttScene(t)
		if err := pipe.Run(cmds, 500_000_000); err != nil {
			t.Fatal(err)
		}
		checkPoolsDrained(t, pipe)
	})
	t.Run("restored", func(t *testing.T) {
		c := goldenScenes[7] // ut2004-3f: a capture after each frame
		pipe, cmds := buildGolden(t, c, c.cfg)
		out := coretest.Record(t, pipeMachine(t, pipe, cmds, c.generator, 20_000))
		if out.Err != "" || len(out.Captures) < 2 {
			t.Fatalf("%d captures, error %q", len(out.Captures), out.Err)
		}
		pipe, cmds = buildGolden(t, c, c.cfg)
		m := pipeMachine(t, pipe, cmds, c.generator, 0)
		if err := m.Restore(out.Captures[len(out.Captures)/2].File); err != nil {
			t.Fatal(err)
		}
		if err := m.Resume(); err != nil {
			t.Fatal(err)
		}
		if pipe.Cycles() != out.Cycles {
			t.Fatalf("the restored run ended at cycle %d, the whole run at %d", pipe.Cycles(), out.Cycles)
		}
		if checkPoolsDrained(t, pipe) == 0 {
			t.Error("the restored run pooled nothing")
		}
	})
}
