package gpu_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"attila/internal/core"
	"attila/internal/core/coretest"
	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/gpu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// aluSteps writes n unrolled z = z*z + c steps (six instructions each)
// on r0, with c in r3 and the orbit clamped to ±c1.x.
func aluSteps(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("MUL r1, r0.xyxy, r0.xyyx\nSUB r2.x, r1.x, r1.y\nADD r2.y, r1.z, r1.w\n")
		b.WriteString("ADD r0.xy, r2, r3\nMIN r0.xy, r0, c1.x\nMAX r0.xy, r0, -c1.x\n")
	}
}

// runAheadScene draws textured quads through a fragment program of two
// long segments — 41 instructions through a TEX whose coordinates come
// from the first, then a KIL on the texel and 44 more — behind a vertex
// program that is one 37-instruction segment.
func runAheadScene(t *testing.T) (*gpu.Pipeline, []gpu.Command) {
	t.Helper()
	const w, h = 64, 48
	cfg := gpu.BaselineUnified()
	cfg.WatchdogWindow = 1_000_000 // a missed wake fails here, not at the cycle limit
	pipe, err := gpu.New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := gl.NewContext(pipe, w, h)

	var vp strings.Builder
	vp.WriteString("!!ATTILAvp\nMOV r0, v0\nMOV r1, v4\n")
	for i := 0; i < 16; i++ {
		vp.WriteString("ADD r1, r1, c0\nADD r1, r1, -c0\n")
	}
	vp.WriteString("MOV o0, r0\nMOV o4, r1\nEND\n")

	var fp strings.Builder
	fp.WriteString("!!ATTILAfp\nMAD r3.xy, v4, c0, c0.zwzw\nMOV r0, r3\n")
	aluSteps(&fp, 6)
	fp.WriteString("MUL r5.xy, r0, c1.y\nADD r5.xy, r5, c1.z\nTEX r4, r5, t0, 2D\n")
	fp.WriteString("SUB r6, r4.x, c2.x\nKIL r6\n")
	aluSteps(&fp, 6)
	fp.WriteString("MUL r7.xy, r0, r0\nADD r7.z, r7.x, r7.y\nMUL_SAT r7.xyz, r7, c1.w\n")
	fp.WriteString("MUL o0.xyz, r7, r4\nMOV o0.w, c2.y\nEND\n")

	ctx.BindProgram(isa.VertexProgram, ctx.ProgramARB(isa.VertexProgram, "runahead-vp", vp.String()))
	ctx.BindProgram(isa.FragmentProgram, ctx.ProgramARB(isa.FragmentProgram, "runahead-fp", fp.String()))
	ctx.ProgramEnv(isa.VertexProgram, 0, vmath.Vec4{0.001, 0.002, 0, 0})
	ctx.ProgramEnv(isa.FragmentProgram, 1, vmath.Vec4{4, 0.2, 0.5, 0.25})
	ctx.ProgramEnv(isa.FragmentProgram, 2, vmath.Vec4{0.3, 1, 0, 0})

	img := gl.NewImage(16, 16)
	for i := range img.Pix {
		img.Pix[i] = texemu.RGBA{byte(i * 37), byte(i * 11), byte(255 - i), 255}
	}
	ctx.BindTexture(0, ctx.TexImage2D(img, texemu.FmtRGBA8, gl.TexParams{
		MinFilter: texemu.FilterLinear, MagFilter: texemu.FilterLinear,
		WrapS: texemu.WrapRepeat, WrapT: texemu.WrapRepeat, MaxAniso: 1,
	}))
	ctx.Viewport(0, 0, w, h)
	for f := 0; f < 2; f++ {
		zoom := float32(1) / float32(1+f)
		ctx.ProgramEnv(isa.FragmentProgram, 0, vmath.Vec4{3 * zoom, 2.4 * zoom, -2, -1.2})
		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)
		drawUV(ctx, [5]float32{-1, -1, 0, 0, 0}, [5]float32{1, -1, 0, 1, 0}, [5]float32{1, 1, 0, 1, 1},
			[5]float32{-1, -1, 0, 0, 0}, [5]float32{1, 1, 0, 1, 1}, [5]float32{-1, 1, 0, 0, 1})
		ctx.SwapBuffers()
	}
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
	return pipe, ctx.Commands()
}

// runRunAheadScene runs the scene with segments of min instructions or
// more handed to the helper, which runs beforeStep before each Step. It
// returns what the run left, the Steps the helper ran and the
// instructions the shaders executed.
func runRunAheadScene(t *testing.T, min int, beforeStep func()) (out *coretest.Outputs, handoff, instr int64) {
	pipe, cmds := runAheadScene(t)
	var steps atomic.Int64
	pipe.SetRunAhead(min, func() {
		steps.Add(1)
		if beforeStep != nil {
			beforeStep()
		}
	})
	out = coretest.Record(t, pipeMachine(t, pipe, cmds, "", 0))
	for _, name := range pipe.Sim.Stats.Names() {
		if strings.HasSuffix(name, ".instructions") {
			instr += int64(pipe.Sim.Stats.Lookup(name).Value())
		}
	}
	return out, steps.Load(), instr
}

// Running shader segments ahead changes nothing a run leaves behind:
// every segment on the clock goroutine, every segment it may hand off
// on the helper, and the same with the helper stalled at random points
// (so that joins find segments still queued, which they run themselves,
// and still running, which they wait for) give the same outputs.
func TestRunAheadMatchesInline(t *testing.T) {
	inline, handoff, instr := runRunAheadScene(t, math.MaxInt, nil)
	if handoff != 0 || inline.Err != "" || len(inline.Frames) != 2 || instr == 0 {
		t.Fatalf("%d Steps on the helper with hand-off off, %d frames, %d instructions, error %q",
			handoff, len(inline.Frames), instr, inline.Err)
	}
	rng := rand.New(rand.NewSource(7))
	stall := func() {
		if rng.Intn(64) == 0 { // the helper's alone: no lock needed
			time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
		}
	}
	for _, mode := range []struct {
		name  string
		stall func()
	}{{"handed off", nil}, {"helper stalled", stall}} {
		got, handoff, _ := runRunAheadScene(t, 1, mode.stall)
		t.Logf("%s: %d of %d instructions ran on the helper", mode.name, handoff, instr)
		if handoff == 0 {
			t.Errorf("%s: no instruction ran on the helper", mode.name)
		}
		for _, d := range inline.Diff(mode.name, got) {
			t.Error(d)
		}
	}
}

// A panic in Step on the helper comes back as the run's *CrashError,
// naming the shader unit whose thread raised it.
func TestRunAheadPanicNamesShader(t *testing.T) {
	pipe, cmds := runAheadScene(t)
	var steps atomic.Int64
	pipe.SetRunAhead(1, func() {
		if steps.Add(1) == 5000 {
			panic("injected")
		}
	})
	err := pipe.Run(cmds, 50_000_000)
	var crash *core.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("run returned %v, want a *core.CrashError", err)
	}
	if !strings.HasPrefix(crash.Box, "Shader") || crash.Value != "injected" {
		t.Fatalf("crash in box %q with %v, want a shader unit and the injected value", crash.Box, crash.Value)
	}
}

// panicGate is a clock gate that panics in the first box it is asked
// about at cycle.
type panicGate struct{ cycle int64 }

func (g panicGate) BeforeClock(cycle int64, box core.Box) bool {
	if cycle == g.cycle {
		panic(fmt.Sprintf("gate at %s", box.BoxName()))
	}
	return true
}

// A pipeline run has one goroutine beside the clock loop, the shader
// helper (and the context watcher, with a cancellable context), and it
// is gone when the run returns, however the run ended.
func TestRunAheadHelperLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     func(*gpu.Pipeline, []gpu.Command) error
		want    error
		watcher int
	}{
		{name: "done", run: func(p *gpu.Pipeline, c []gpu.Command) error { return p.Run(c, 50_000_000) }},
		{name: "cycle limit", want: core.ErrCycleLimit,
			run: func(p *gpu.Pipeline, c []gpu.Command) error { return p.Run(c, 20_000) }},
		{name: "cancel", want: core.ErrCanceled, watcher: 1,
			run: func(p *gpu.Pipeline, c []gpu.Command) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				p.Sim.OnEndCycle(func(cycle int64) {
					if cycle == 20_000 {
						cancel()
					}
				})
				return p.RunContext(ctx, c, 50_000_000)
			}},
		{name: "box panic", want: core.ErrPanic,
			run: func(p *gpu.Pipeline, c []gpu.Command) error {
				p.Sim.SetClockGate(panicGate{cycle: 20_000})
				return p.Run(c, 50_000_000)
			}},
	} {
		pipe, cmds := runAheadScene(t)
		pipe.SetRunAhead(1, nil)
		before := coretest.Goroutines(t)
		seen := -1
		pipe.Sim.OnEndCycle(func(cycle int64) {
			if cycle == 10_000 {
				seen = coretest.Goroutines(t)
			}
		})
		err := tc.run(pipe, cmds)
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: run returned %v, want %v", tc.name, err, tc.want)
		}
		if want := before + 1 + tc.watcher; seen != want {
			t.Errorf("%s: %d goroutines during the run, want %d", tc.name, seen, want)
		}
		if after := coretest.Goroutines(t); after != before {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.name, after, before)
		}
	}
}
