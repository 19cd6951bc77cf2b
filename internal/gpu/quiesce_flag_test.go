package gpu_test

import (
	"math"
	"testing"

	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/gpu"
	"attila/internal/isa"
)

// TestFlowFoldMatchesEveryCycleModel's neighbour for the other
// publication: a texture unit marks its quiesce flag for folding only on
// a Clock that ends with the idle condition other than published, where
// it used to mark on every Clock. The model is that every-clock
// publication, whose flag at every barrier is the live condition (the
// condition changes only in the unit's own Clock): the value the command
// processor polls must equal it at every barrier, parked or not, on a
// scene that switches render target twice —
// the one place the flag is consulted — and textures from the target.
func TestQuiesceFlagMatchesEveryClockModel(t *testing.T) {
	cfg := gpu.BaselineUnified()
	pipe, err := gpu.New(cfg, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	ctx := gl.NewContext(pipe, 64, 48)
	draw := func(verts ...[5]float32) { // x, y, z, u, v
		var data []byte
		for _, v := range verts {
			for _, f := range v {
				b := math.Float32bits(f)
				data = append(data, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
			}
		}
		buf := ctx.GenBuffer(len(data))
		ctx.BufferData(buf, 0, data)
		ctx.VertexAttribPointer(isa.AttrPos, buf, 0, 20, 3)
		ctx.VertexAttribPointer(isa.AttrTex0, buf, 12, 20, 2)
		ctx.DrawArrays(gpu.Triangles, 0, len(verts))
	}
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
		draw([5]float32{-0.8, -0.8, 0, 0, 0}, [5]float32{0.8, -0.8, 0, 1, 0}, [5]float32{0, 0.8, 0, 0.5, 1})
		ctx.RenderToScreen()
		ctx.Viewport(0, 0, 64, 48)
		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)
		ctx.Enable(gl.CapTexture0)
		ctx.BindTexture(0, target)
		draw([5]float32{-1, -1, 0, 0, 0}, [5]float32{1, -1, 0, 1, 0}, [5]float32{1, 1, 0, 1, 1},
			[5]float32{-1, -1, 0, 0, 0}, [5]float32{1, 1, 0, 1, 1}, [5]float32{-1, 1, 0, 0, 1})
		ctx.SwapBuffers()
	}
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}

	tus := pipe.TextureUnits()
	last := make([]bool, len(tus))
	for i := range last {
		last[i] = true
	}
	flips, wrong := 0, 0
	pipe.Sim.OnEndCycle(func(cycle int64) { // after the barrier's folds
		for i, tu := range tus {
			got := tu.Quiesce()
			if want := tu.LiveIdle(); got != want && wrong < 5 {
				wrong++
				t.Errorf("cycle %d: %s published quiesced=%v, the every-clock publication says %v", cycle, tu.BoxName(), got, want)
			}
			if got != last[i] {
				flips++
				last[i] = got
			}
		}
	})
	if err := pipe.Run(ctx.Commands(), 50_000_000); err != nil {
		t.Fatal(err)
	}
	if len(pipe.Frames()) != 2 {
		t.Fatalf("%d frames", len(pipe.Frames()))
	}
	if flips < 4 {
		t.Errorf("the flag changed %d times: the scene shows nothing", flips)
	}
}
