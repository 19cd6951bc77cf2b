package workload

import (
	"math"

	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/vmath"
)

// Simple renders a colored triangle over a textured floor — the
// smallest workload that touches both shading paths; used by the
// quickstart example and smoke tests.
func Simple(ctx *gl.Context, p Params) error {
	params := gl.DefaultTexParams()
	params.MaxAniso = p.Aniso
	floorTex := texImage(ctx, texKey{gen: genChecker, size: 64, square: 8,
		a: texemu.RGBA{200, 200, 200, 255}, b: texemu.RGBA{40, 40, 80, 255},
		format: texemu.FmtRGBA8}, params)

	var floor Mesh
	fv := func(x, z, u, v float32) Vertex {
		return Vertex{
			Pos: [3]float32{x, -1, z}, Color: vmath.Vec4{1, 1, 1, 1},
			Normal: [3]float32{0, 1, 0}, UV0: [2]float32{u, v},
		}
	}
	a := floor.Add(fv(-8, -1, 0, 0))
	b := floor.Add(fv(8, -1, 8, 0))
	c := floor.Add(fv(8, -17, 8, 8))
	d := floor.Add(fv(-8, -17, 0, 8))
	floor.Quad(a, b, c, d)
	floorBuf := floor.Upload(ctx)

	var tri Mesh
	tri.Add(Vertex{Pos: [3]float32{-1.5, -0.5, -5}, Color: vmath.Vec4{1, 0, 0, 1}, Normal: [3]float32{0, 0, 1}})
	tri.Add(Vertex{Pos: [3]float32{1.5, -0.5, -5}, Color: vmath.Vec4{0, 1, 0, 1}, Normal: [3]float32{0, 0, 1}})
	tri.Add(Vertex{Pos: [3]float32{0, 1.5, -5}, Color: vmath.Vec4{0, 0, 1, 1}, Normal: [3]float32{0, 0, 1}})
	tri.Tri(0, 1, 2)
	triBuf := tri.Upload(ctx)

	aspect := float32(p.Width) / float32(p.Height)
	ctx.LoadProjection(vmath.Perspective(math.Pi/3, aspect, 0.5, 100))
	ctx.Enable(gl.CapDepthTest)
	ctx.ClearColor(0.25, 0.3, 0.4, 1)

	for f := 0; f < p.Frames; f++ {
		ang := float32(f) * 0.1
		ctx.LoadModelView(vmath.RotateY(ang))
		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)

		ctx.Enable(gl.CapTexture0)
		ctx.BindTexture(0, floorTex)
		floorBuf.Draw(ctx)

		ctx.Disable(gl.CapTexture0)
		triBuf.Draw(ctx)

		ctx.SwapBuffers()
	}
	return ctx.Err()
}
