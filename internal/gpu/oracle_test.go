package gpu_test

import (
	"encoding/binary"
	"math"
	"testing"

	"attila/internal/core/coretest"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/gpu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// retireScene draws one frame per place a batch can finish retiring,
// each batch alone in the pipeline between a clear or a swap, so that
// the command processor, parked until the batch is done, has nothing
// but that batch's announcement to wake it: the last triangle rejected
// by the Clipper, culled by TriangleSetup, or traversed by the
// FragmentGenerator without a covered fragment; the last quad culled by
// HierarchicalZ or ZStencil, killed in the FragmentFIFO, or written by
// ColorWrite; and, for the end of the geometry phase, a second draw
// waiting behind the first.
func retireScene(t testing.TB, w, h int) (*gpu.Pipeline, []gpu.Command) {
	t.Helper()
	cfg := gpu.BaselineUnified()
	cfg.WatchdogWindow = 1_000_000 // a missed wake fails here, not at the cycle limit
	pipe, err := gpu.New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := gl.NewContext(pipe, w, h)
	red := vmath.Vec4{1, 0, 0, 1}
	draw := func(color vmath.Vec4, xy ...float32) { // window coordinates, z in NDC
		var data []byte
		for i := 0; i < len(xy); i += 3 {
			v := [7]float32{xy[i]/float32(w)*2 - 1, xy[i+1]/float32(h)*2 - 1, xy[i+2],
				color[0], color[1], color[2], color[3]}
			for _, f := range v {
				data = binary.LittleEndian.AppendUint32(data, math.Float32bits(f))
			}
		}
		buf := ctx.GenBuffer(len(data))
		ctx.BufferData(buf, 0, data)
		ctx.VertexAttribPointer(isa.AttrPos, buf, 0, 28, 3)
		ctx.VertexAttribPointer(isa.AttrColor, buf, 12, 28, 4)
		ctx.DrawArrays(gpu.Triangles, 0, len(xy)/3)
	}
	W, H := float32(w), float32(h)
	screen := func(z float32) []float32 { return []float32{0, 0, z, W, 0, z, W, H, z, 0, 0, z, W, H, z, 0, H, z} }
	ctx.Enable(gl.CapDepthTest)
	ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)

	draw(red, 2*W, 0, 0, 3*W, 0, 0, 2*W, H, 0) // Clipper: beyond the right plane
	ctx.SwapBuffers()
	ctx.Enable(gl.CapCullFace)
	draw(red, 0, 0, 0, 0, H, 0, W, 0, 0) // TriangleSetup: clockwise, culled
	ctx.Disable(gl.CapCullFace)
	ctx.SwapBuffers()
	draw(red, 10.1, 10.1, 0, 10.4, 10.1, 0, 10.1, 10.4, 0) // FragmentGenerator: inside one pixel, off its centre
	ctx.SwapBuffers()
	ctx.DepthFunc(fragemu.CmpGreater) // ZStencil: nothing is farther than the cleared depth
	draw(red, screen(0)...)
	ctx.DepthFunc(fragemu.CmpLess)
	ctx.SwapBuffers()
	ctx.Enable(gl.CapAlphaTest) // FragmentFIFO: every fragment killed
	ctx.AlphaFunc(fragemu.CmpGEqual, 0.5)
	draw(vmath.Vec4{1, 0, 0, 0.25}, screen(0)...)
	ctx.Disable(gl.CapAlphaTest)
	ctx.SwapBuffers()
	draw(red, screen(-0.5)...) // ColorWrite; the swap's Z flush primes the HZ buffer
	ctx.SwapBuffers()
	draw(red, screen(0.5)...) // HierarchicalZ: every tile behind it
	ctx.SwapBuffers()
	draw(red, 0, 0, -0.9, W, 0, -0.9, 0, H, -0.9) // PrimAssembly: the next draw waits for its geometry phase
	draw(red, W, H, -0.9, 0, H, -0.9, W, 0, -0.9)
	ctx.SwapBuffers()
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
	return pipe, ctx.Commands()
}

// drawUV draws triangles of vertices with a position and one texture
// coordinate pair each.
func drawUV(ctx *gl.Context, verts ...[5]float32) { // x, y, z, u, v
	var data []byte
	for _, v := range verts {
		for _, f := range v {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(f))
		}
	}
	buf := ctx.GenBuffer(len(data))
	ctx.BufferData(buf, 0, data)
	ctx.VertexAttribPointer(isa.AttrPos, buf, 0, 20, 3)
	ctx.VertexAttribPointer(isa.AttrTex0, buf, 12, 20, 2)
	ctx.DrawArrays(gpu.Triangles, 0, len(verts))
}

// rttScene renders to a texture and textures from it, twice: the
// command processor waits at each render-target switch for the texture
// units' quiesce flag, the one place it is consulted.
func rttScene(t testing.TB) (*gpu.Pipeline, []gpu.Command) {
	t.Helper()
	cfg := gpu.BaselineUnified()
	cfg.WatchdogWindow = 1_000_000
	pipe, err := gpu.New(cfg, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	ctx := gl.NewContext(pipe, 64, 48)
	target := ctx.TexImage2D(gl.NewImage(32, 32), texemu.FmtRGBA8, gl.TexParams{
		MinFilter: texemu.FilterNearest, MagFilter: texemu.FilterNearest,
		WrapS: texemu.WrapClamp, WrapT: texemu.WrapClamp, MaxAniso: 1,
	})
	for frame := 0; frame < 2; frame++ {
		ctx.RenderToTexture(target)
		ctx.Viewport(0, 0, 32, 32)
		ctx.ClearColor(0, 0.25, float32(frame), 1)
		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)
		ctx.Disable(gl.CapTexture0)
		drawUV(ctx, [5]float32{-0.8, -0.8, 0, 0, 0}, [5]float32{0.8, -0.8, 0, 1, 0}, [5]float32{0, 0.8, 0, 0.5, 1})
		ctx.RenderToScreen()
		ctx.Viewport(0, 0, 64, 48)
		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)
		ctx.Enable(gl.CapTexture0)
		ctx.BindTexture(0, target)
		drawUV(ctx, [5]float32{-1, -1, 0, 0, 0}, [5]float32{1, -1, 0, 1, 0}, [5]float32{1, 1, 0, 1, 1},
			[5]float32{-1, -1, 0, 0, 0}, [5]float32{1, 1, 0, 1, 1}, [5]float32{-1, 1, 0, 0, 1})
		ctx.SwapBuffers()
	}
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
	return pipe, ctx.Commands()
}

// The scenes of the differential oracle beside the golden ones, and the
// negative control it must catch:
//   - retire: every place a batch can finish retiring wakes whoever
//     waits for it (a missed wake either never comes — the watchdog — or
//     comes with a later retirement, and the cycles differ);
//   - render-to-texture: a texture unit marks its quiesce flag for
//     folding only on a Clock that ends with the idle condition other
//     than published, where it used to mark on every Clock; the value the
//     command processor polls must be that every-clock publication, the
//     live condition (which changes only in the unit's own Clock), at
//     every barrier;
//   - the retire scene with no batch announcing its retirement (the
//     class of a dropped announcement) must differ.
func TestParkedMatchesEveryBox(t *testing.T) {
	t.Run("retire", func(t *testing.T) {
		out := coretest.Check(t, func(tb testing.TB) *coretest.Machine {
			pipe, cmds := retireScene(tb, 64, 48)
			return pipeMachine(tb, pipe, cmds, "retire", 5000)
		})
		if len(out.Frames) != 8 {
			t.Errorf("%d frames, want 8", len(out.Frames))
		}
	})
	t.Run("render-to-texture", func(t *testing.T) {
		var flips []*int // per run
		out := coretest.Check(t, func(tb testing.TB) *coretest.Machine {
			pipe, cmds := rttScene(tb)
			tus, last := pipe.TextureUnits(), make([]bool, len(pipe.TextureUnits()))
			for i := range last {
				last[i] = true
			}
			n, wrong := new(int), 0
			flips = append(flips, n)
			pipe.Sim.OnEndCycle(func(cycle int64) { // after the barrier's folds
				for i, tu := range tus {
					got := tu.Quiesce()
					if want := tu.LiveIdle(); got != want && wrong < 5 {
						wrong++
						tb.Errorf("cycle %d: %s published quiesced=%v, the every-clock publication says %v", cycle, tu.BoxName(), got, want)
					}
					if got != last[i] {
						*n++
						last[i] = got
					}
				}
			})
			return pipeMachine(tb, pipe, cmds, "rtt", 2000)
		})
		if len(out.Frames) != 2 || *flips[0] < 4 {
			t.Errorf("%d frames, the flag changed %d times: the scene shows nothing", len(out.Frames), *flips[0])
		}
	})
	t.Run("control/mute-retirement", func(t *testing.T) {
		if _, diffs := coretest.Diff(t, func(tb testing.TB) *coretest.Machine {
			pipe, cmds := retireScene(tb, 64, 48)
			pipe.MuteRetirement()
			return pipeMachine(tb, pipe, cmds, "retire", 0)
		}); len(diffs) == 0 {
			t.Error("batches that announce no retirement went unnoticed")
		}
	})
}
