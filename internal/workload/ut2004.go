package workload

import (
	"math"

	"attila/internal/emu/fragemu"
	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/vmath"
)

// UT2004Like stands in for the paper's UT2004 Primeval timedemo: an
// outdoor scene with a lightmapped, multitextured terrain (two
// texture units, DXT-compressed diffuse), anisotropically filtered
// ground at grazing angles, distance fog and alpha-tested foliage —
// the texture-heavy, fixed-function-style workload of the case study.
func UT2004Like(ctx *gl.Context, p Params) error {
	texParams := gl.DefaultTexParams()
	texParams.MaxAniso = p.Aniso

	grass := texImage(ctx, texKey{gen: genGrass, size: 256, seed: p.Seed, format: texemu.FmtDXT1}, texParams)
	rock := texImage(ctx, texKey{gen: genRock, size: 256, seed: p.Seed + 1, format: texemu.FmtDXT1}, texParams)
	lightmap := texImage(ctx, texKey{gen: genLightmap, size: 128, seed: p.Seed + 2, format: texemu.FmtRGBA8}, texParams)
	leafParams := texParams
	leafParams.MaxAniso = 1
	foliage := texImage(ctx, texKey{gen: genFoliage, size: 128, seed: p.Seed + 3, format: texemu.FmtDXT3}, leafParams)

	// Terrain: a grid with a noise heightfield, tiled diffuse UVs
	// and a single lightmap chart over the whole patch.
	const grid = 20
	const cell = 4.0
	height := func(ix, iz int) float32 {
		return float32(fbm(float64(ix), float64(iz), 6, 3, p.Seed+7)) * 6
	}
	var terrain Mesh
	for iz := 0; iz <= grid; iz++ {
		for ix := 0; ix <= grid; ix++ {
			h := height(ix, iz)
			terrain.Add(Vertex{
				Pos:    [3]float32{float32(ix)*cell - grid*cell/2, h, -float32(iz) * cell},
				Color:  vmath.Vec4{1, 1, 1, 1},
				Normal: [3]float32{0, 1, 0},
				UV0:    [2]float32{float32(ix), float32(iz)},
				UV1:    [2]float32{float32(ix) / grid, float32(iz) / grid},
			})
		}
	}
	for iz := 0; iz < grid; iz++ {
		for ix := 0; ix < grid; ix++ {
			a := uint16(iz*(grid+1) + ix)
			b := a + 1
			c := a + uint16(grid+1) + 1
			d := a + uint16(grid+1)
			terrain.Quad(a, b, c, d)
		}
	}
	terrainBuf := terrain.Upload(ctx)

	// Rock wall at the back of the scene.
	var wall Mesh
	wv := func(x, y, z, u, v float32) uint16 {
		return wall.Add(Vertex{
			Pos: [3]float32{x, y, z}, Color: vmath.Vec4{1, 1, 1, 1},
			Normal: [3]float32{0, 0, 1}, UV0: [2]float32{u, v},
			UV1: [2]float32{u / 8, v / 8},
		})
	}
	zBack := -float32(grid) * cell
	wall.Quad(
		wv(-grid*cell/2, 0, zBack, 0, 0),
		wv(grid*cell/2, 0, zBack, 8, 0),
		wv(grid*cell/2, 18, zBack, 8, 3),
		wv(-grid*cell/2, 18, zBack, 0, 3),
	)
	wallBuf := wall.Upload(ctx)

	// Foliage billboards scattered over the terrain.
	var leaves Mesh
	for i := 0; i < 12; i++ {
		fx := float64(hash32(int64(i), 3, p.Seed) % 1000)
		fz := float64(hash32(int64(i), 9, p.Seed) % 1000)
		x := float32(fx/1000-0.5) * grid * cell * 0.8
		z := -float32(fz/1000) * grid * cell * 0.8
		ix := int((x + grid*cell/2) / cell)
		iz := int(-z / cell)
		if ix < 0 {
			ix = 0
		}
		if iz < 0 {
			iz = 0
		}
		y := height(ix, iz)
		lv := func(dx, dy float32, u, v float32) uint16 {
			return leaves.Add(Vertex{
				Pos: [3]float32{x + dx, y + dy, z}, Color: vmath.Vec4{1, 1, 1, 1},
				Normal: [3]float32{0, 0, 1}, UV0: [2]float32{u, v},
			})
		}
		leaves.Quad(
			lv(-1.5, 0, 0, 0), lv(1.5, 0, 1, 0), lv(1.5, 3.5, 1, 1), lv(-1.5, 3.5, 0, 1),
		)
	}
	leavesBuf := leaves.Upload(ctx)

	aspect := float32(p.Width) / float32(p.Height)
	ctx.LoadProjection(vmath.Perspective(math.Pi/3, aspect, 0.5, 200))
	ctx.ClearColor(0.55, 0.65, 0.85, 1)
	ctx.Fog(20, 120, vmath.Vec4{0.55, 0.65, 0.85, 1})

	for f := 0; f < p.Frames; f++ {
		// Camera flies forward over the terrain, looking slightly
		// down — the grazing angle is what makes anisotropy matter.
		t := float32(f)
		eye := vmath.Vec4{t * 1.5, 9, -4 - t*2.5, 1}
		at := vmath.Vec4{t * 1.5, 4, -30 - t*2.5, 1}
		view := vmath.LookAt(eye, at, vmath.Vec4{0, 1, 0, 0})
		ctx.LoadModelView(view)

		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)
		ctx.Enable(gl.CapDepthTest)
		ctx.Enable(gl.CapFog)
		ctx.Enable(gl.CapCullFace)

		// Terrain: diffuse x lightmap multitexture.
		ctx.Enable(gl.CapTexture0)
		ctx.Enable(gl.CapTexture1)
		ctx.BindTexture(0, grass)
		ctx.BindTexture(1, lightmap)
		terrainBuf.Draw(ctx)

		// Back wall: rock, same lightmap.
		ctx.BindTexture(0, rock)
		wallBuf.Draw(ctx)

		// Foliage: alpha-tested cutouts, no lightmap, no culling
		// (billboards are double sided).
		ctx.Disable(gl.CapTexture1)
		ctx.Disable(gl.CapCullFace)
		ctx.Enable(gl.CapAlphaTest)
		ctx.AlphaFunc(fragemu.CmpGEqual, 0.5)
		ctx.BindTexture(0, foliage)
		leavesBuf.Draw(ctx)
		ctx.Disable(gl.CapAlphaTest)

		ctx.SwapBuffers()
	}
	return ctx.Err()
}

// Spinner is a lightweight animated workload (a spinning lit cube on
// a textured floor) sized for the embedded configuration of paper
// [2].
func Spinner(ctx *gl.Context, p Params) error {
	texParams := gl.DefaultTexParams()
	texParams.MaxAniso = 1
	tex := texImage(ctx, texKey{gen: genChecker, size: 32, square: 4,
		a: texemu.RGBA{220, 220, 220, 255}, b: texemu.RGBA{60, 60, 120, 255},
		format: texemu.FmtRGBA8}, texParams)

	var cube Mesh
	faces := [6][4]v3{
		{{-1, -1, 1}, {1, -1, 1}, {1, 1, 1}, {-1, 1, 1}},     // +Z
		{{1, -1, -1}, {-1, -1, -1}, {-1, 1, -1}, {1, 1, -1}}, // -Z
		{{1, -1, 1}, {1, -1, -1}, {1, 1, -1}, {1, 1, 1}},     // +X
		{{-1, -1, -1}, {-1, -1, 1}, {-1, 1, 1}, {-1, 1, -1}}, // -X
		{{-1, 1, 1}, {1, 1, 1}, {1, 1, -1}, {-1, 1, -1}},     // +Y
		{{-1, -1, -1}, {1, -1, -1}, {1, -1, 1}, {-1, -1, 1}}, // -Y
	}
	normals := [6]v3{{0, 0, 1}, {0, 0, -1}, {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}}
	uvs := [4][2]float32{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	for fi, face := range faces {
		var ids [4]uint16
		for vi, pos := range face {
			ids[vi] = cube.Add(Vertex{
				Pos: pos, Color: vmath.Vec4{1, 1, 1, 1},
				Normal: normals[fi], UV0: uvs[vi],
			})
		}
		cube.Quad(ids[0], ids[1], ids[2], ids[3])
	}
	cubeBuf := cube.Upload(ctx)

	aspect := float32(p.Width) / float32(p.Height)
	ctx.LoadProjection(vmath.Perspective(math.Pi/3, aspect, 0.5, 50))
	ctx.Enable(gl.CapDepthTest)
	ctx.Enable(gl.CapCullFace)
	ctx.Enable(gl.CapLighting)
	ctx.Enable(gl.CapTexture0)
	ctx.Light(vmath.Vec4{0.3, 0.5, 1, 0}, vmath.Vec4{0.9, 0.9, 0.8, 1}, vmath.Vec4{0.25, 0.25, 0.3, 1})
	ctx.BindTexture(0, tex)
	ctx.ClearColor(0.1, 0.1, 0.15, 1)

	for f := 0; f < p.Frames; f++ {
		ang := float32(f) * 0.25
		model := vmath.Translate(0, 0, -5).Mul(vmath.RotateY(ang)).Mul(vmath.RotateX(ang * 0.7))
		ctx.LoadModelView(model)
		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)
		cubeBuf.Draw(ctx)
		ctx.SwapBuffers()
	}
	return ctx.Err()
}
