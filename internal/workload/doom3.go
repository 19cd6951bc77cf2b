package workload

import (
	"math"

	"attila/internal/emu/fragemu"
	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/vmath"
)

// Doom3Like stands in for the paper's DOOM3 trDemo2 timedemo: the
// id-tech-4 multi-pass renderer structure — a depth/ambient pre-pass,
// then per light a stencil shadow volume carve (Carmack's reverse:
// INCR/DECR on depth fail, color and depth writes off) and an
// additively blended lit pass masked to stencil zero. It is the
// stencil- and overdraw-heavy workload of the case study.
func Doom3Like(ctx *gl.Context, p Params) error { return doom3(ctx, p, false) }

// Doom3TwoSided is the same scene using the double-sided stencil
// extension: each shadow volume renders in a single pass with
// per-facing stencil operations instead of two cull-flipped passes.
func Doom3TwoSided(ctx *gl.Context, p Params) error { return doom3(ctx, p, true) }

func doom3(ctx *gl.Context, p Params, twoSided bool) error {
	texParams := gl.DefaultTexParams()
	texParams.MaxAniso = p.Aniso
	wallTex := texImage(ctx, texKey{gen: genRock, size: 256, seed: p.Seed + 11, format: texemu.FmtDXT1}, texParams)
	floorTex := texImage(ctx, texKey{gen: genChecker, size: 256, square: 16,
		a: texemu.RGBA{110, 105, 95, 255}, b: texemu.RGBA{70, 66, 60, 255},
		format: texemu.FmtRGBA8}, texParams)

	// Room interior (normals pointing inward) and two box occluders.
	const roomW, roomH, roomD = 24.0, 10.0, 28.0
	var room Mesh
	rv := func(x, y, z float32, n v3, u, v float32) uint16 {
		return room.Add(Vertex{
			Pos: [3]float32{x, y, z}, Color: vmath.Vec4{1, 1, 1, 1},
			Normal: n, UV0: [2]float32{u, v},
		})
	}
	// Floor (y=0, normal +Y), winding CCW seen from inside (above).
	room.Quad(
		rv(-roomW/2, 0, 0, v3{0, 1, 0}, 0, 0),
		rv(roomW/2, 0, 0, v3{0, 1, 0}, 6, 0),
		rv(roomW/2, 0, -roomD, v3{0, 1, 0}, 6, 7),
		rv(-roomW/2, 0, -roomD, v3{0, 1, 0}, 0, 7),
	)
	floorEnd := len(room.Indices)
	// Back wall (z=-roomD, normal +Z).
	room.Quad(
		rv(-roomW/2, 0, -roomD, v3{0, 0, 1}, 0, 0),
		rv(roomW/2, 0, -roomD, v3{0, 0, 1}, 6, 0),
		rv(roomW/2, roomH, -roomD, v3{0, 0, 1}, 6, 2.5),
		rv(-roomW/2, roomH, -roomD, v3{0, 0, 1}, 0, 2.5),
	)
	// Left wall (x=-roomW/2, normal +X).
	room.Quad(
		rv(-roomW/2, 0, 0, v3{1, 0, 0}, 0, 0),
		rv(-roomW/2, 0, -roomD, v3{1, 0, 0}, 7, 0),
		rv(-roomW/2, roomH, -roomD, v3{1, 0, 0}, 7, 2.5),
		rv(-roomW/2, roomH, 0, v3{1, 0, 0}, 0, 2.5),
	)
	// Right wall (x=+roomW/2, normal -X).
	room.Quad(
		rv(roomW/2, 0, -roomD, v3{-1, 0, 0}, 0, 0),
		rv(roomW/2, 0, 0, v3{-1, 0, 0}, 7, 0),
		rv(roomW/2, roomH, 0, v3{-1, 0, 0}, 7, 2.5),
		rv(roomW/2, roomH, -roomD, v3{-1, 0, 0}, 0, 2.5),
	)
	roomBuf := room.Upload(ctx)
	_ = floorEnd

	boxes := []box{
		{center: v3{-4, 1.5, -14}, half: v3{1.5, 1.5, 1.5}},
		{center: v3{5, 2, -18}, half: v3{2, 2, 2}},
	}
	var boxMesh Mesh
	for _, b := range boxes {
		b.appendTo(&boxMesh)
	}
	boxBuf := boxMesh.Upload(ctx)

	lights := []light{
		{pos: v3{-6, 8, -8}, color: vmath.Vec4{0.9, 0.75, 0.55, 1}},
		{pos: v3{7, 8, -22}, color: vmath.Vec4{0.45, 0.55, 0.9, 1}},
	}

	// Shadow volumes are static (lights and occluders do not move):
	// build once and upload.
	volBufs := make([]MeshBuffers, 0, len(boxes)*len(lights))
	volFor := make([][]int, len(lights))
	for li, l := range lights {
		for _, b := range boxes {
			var vol Mesh
			buildShadowVolume(&vol, b, l.pos, 60)
			volFor[li] = append(volFor[li], len(volBufs))
			volBufs = append(volBufs, vol.Upload(ctx))
		}
	}

	// Fullscreen quad used to reset the stencil buffer between
	// lights by rendering (color and depth untouched), the classic
	// technique before dedicated stencil-only clears.
	var fsq Mesh
	fsq.Quad(
		fsq.Add(Vertex{Pos: [3]float32{-1, -1, 0}, Color: vmath.Vec4{1, 1, 1, 1}}),
		fsq.Add(Vertex{Pos: [3]float32{1, -1, 0}, Color: vmath.Vec4{1, 1, 1, 1}}),
		fsq.Add(Vertex{Pos: [3]float32{1, 1, 0}, Color: vmath.Vec4{1, 1, 1, 1}}),
		fsq.Add(Vertex{Pos: [3]float32{-1, 1, 0}, Color: vmath.Vec4{1, 1, 1, 1}}),
	)
	fsqBuf := fsq.Upload(ctx)

	aspect := float32(p.Width) / float32(p.Height)
	proj := vmath.Perspective(math.Pi/3, aspect, 0.5, 120)
	ctx.LoadProjection(proj)
	ctx.ClearColor(0, 0, 0, 1)

	drawScene := func(withBoxTex bool) {
		ctx.BindTexture(0, floorTex)
		roomBuf.Draw(ctx)
		if withBoxTex {
			ctx.BindTexture(0, wallTex)
		}
		boxBuf.Draw(ctx)
	}

	for f := 0; f < p.Frames; f++ {
		t := float32(f) * 0.15
		eye := vmath.Vec4{2 + 3*float32(math.Sin(float64(t))), 5, -2, 1}
		at := vmath.Vec4{0, 2, -16, 1}
		view := vmath.LookAt(eye, at, vmath.Vec4{0, 1, 0, 0})
		ctx.LoadModelView(view)

		ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit | gl.StencilBufferBit)

		// Pass 1: ambient + depth fill.
		ctx.Enable(gl.CapDepthTest)
		ctx.DepthFunc(fragemu.CmpLess)
		ctx.DepthMask(true)
		ctx.Disable(gl.CapBlend)
		ctx.Disable(gl.CapStencilTest)
		ctx.Enable(gl.CapCullFace)
		ctx.Enable(gl.CapTexture0)
		ctx.Enable(gl.CapLighting)
		// Dim ambient-only lighting for the base pass.
		ctx.Light(vmath.Vec4{0, 1, 0, 0}, vmath.Vec4{0, 0, 0, 1}, vmath.Vec4{0.18, 0.17, 0.16, 1})
		drawScene(true)

		for li, l := range lights {
			if li > 0 {
				// Stencil reset quad (identity transform path: draw
				// with an orthographic fullscreen setup).
				ctx.Disable(gl.CapTexture0)
				ctx.Disable(gl.CapLighting)
				ctx.Disable(gl.CapCullFace)
				ctx.Disable(gl.CapDepthTest)
				ctx.Enable(gl.CapStencilTest)
				ctx.StencilFunc(fragemu.CmpAlways, 0, 0xFF)
				ctx.StencilOp(fragemu.StReplace, fragemu.StReplace, fragemu.StReplace)
				ctx.ColorMask(false, false, false, false)
				ctx.LoadProjection(vmath.Identity())
				ctx.LoadModelView(vmath.Identity())
				fsqBuf.Draw(ctx)
				ctx.LoadProjection(proj)
				ctx.LoadModelView(view)
				ctx.ColorMask(true, true, true, true)
				ctx.Enable(gl.CapDepthTest)
				ctx.Enable(gl.CapCullFace)
				ctx.Enable(gl.CapTexture0)
				ctx.Enable(gl.CapLighting)
			}

			// Pass 2: carve the shadow volumes into stencil
			// (Carmack's reverse: z-fail increments on back faces,
			// decrements on front faces; depth and color locked).
			ctx.Enable(gl.CapStencilTest)
			ctx.ColorMask(false, false, false, false)
			ctx.DepthMask(false)
			ctx.Disable(gl.CapTexture0)
			ctx.Disable(gl.CapLighting)
			ctx.StencilFunc(fragemu.CmpAlways, 0, 0xFF)
			if twoSided {
				// Single pass: back faces increment, front faces
				// decrement on depth fail.
				ctx.Disable(gl.CapCullFace)
				ctx.StencilTwoSide(true)
				ctx.StencilOp(fragemu.StKeep, fragemu.StDecrWrap, fragemu.StKeep)
				ctx.StencilBackFunc(fragemu.CmpAlways, 0, 0xFF)
				ctx.StencilBackOp(fragemu.StKeep, fragemu.StIncrWrap, fragemu.StKeep)
				for _, vi := range volFor[li] {
					volBufs[vi].Draw(ctx)
				}
				ctx.StencilTwoSide(false)
				ctx.Enable(gl.CapCullFace)
			} else {
				for _, vi := range volFor[li] {
					ctx.CullFace(gl.CullFront) // render back faces
					ctx.StencilOp(fragemu.StKeep, fragemu.StIncrWrap, fragemu.StKeep)
					volBufs[vi].Draw(ctx)
					ctx.CullFace(gl.CullBack) // render front faces
					ctx.StencilOp(fragemu.StKeep, fragemu.StDecrWrap, fragemu.StKeep)
					volBufs[vi].Draw(ctx)
				}
			}

			// Pass 3: additive lit pass where stencil == 0.
			ctx.ColorMask(true, true, true, true)
			ctx.Enable(gl.CapTexture0)
			ctx.Enable(gl.CapLighting)
			ctx.Enable(gl.CapBlend)
			ctx.BlendFunc(fragemu.BfOne, fragemu.BfOne)
			ctx.DepthFunc(fragemu.CmpLEqual)
			ctx.StencilFunc(fragemu.CmpEqual, 0, 0xFF)
			ctx.StencilOp(fragemu.StKeep, fragemu.StKeep, fragemu.StKeep)
			// Directional approximation of the point light in eye
			// space.
			dir := norm3(sub3(l.pos, v3{0, 2, -16}))
			eyeDir := view.MulVec(vmath.Vec4{dir[0], dir[1], dir[2], 0})
			ctx.Light(eyeDir, l.color, vmath.Vec4{0, 0, 0, 1})
			drawScene(true)

			// Restore for next light / frame.
			ctx.Disable(gl.CapBlend)
			ctx.DepthFunc(fragemu.CmpLess)
			ctx.DepthMask(true)
			ctx.Disable(gl.CapStencilTest)
		}

		ctx.SwapBuffers()
	}
	return ctx.Err()
}

type light struct {
	pos   v3
	color vmath.Vec4
}

// box is an axis-aligned occluder.
type box struct {
	center v3
	half   v3
}

func (b box) corner(i int) v3 {
	sx := float32(1)
	if i&1 == 0 {
		sx = -1
	}
	sy := float32(1)
	if i&2 == 0 {
		sy = -1
	}
	sz := float32(1)
	if i&4 == 0 {
		sz = -1
	}
	return add3(b.center, v3{b.half[0] * sx, b.half[1] * sy, b.half[2] * sz})
}

// boxFaces lists each face's corner indices in CCW order seen from
// outside, with its outward normal.
var boxFaces = [6]struct {
	idx [4]int
	n   v3
}{
	{[4]int{4, 5, 7, 6}, v3{0, 0, 1}},  // +Z
	{[4]int{1, 0, 2, 3}, v3{0, 0, -1}}, // -Z
	{[4]int{5, 1, 3, 7}, v3{1, 0, 0}},  // +X
	{[4]int{0, 4, 6, 2}, v3{-1, 0, 0}}, // -X
	{[4]int{6, 7, 3, 2}, v3{0, 1, 0}},  // +Y
	{[4]int{0, 1, 5, 4}, v3{0, -1, 0}}, // -Y
}

// appendTo adds the box's faces to a mesh with per-face normals and
// simple planar UVs.
func (b box) appendTo(m *Mesh) {
	for _, face := range boxFaces {
		var ids [4]uint16
		for vi, ci := range face.idx {
			pos := b.corner(ci)
			ids[vi] = m.Add(Vertex{
				Pos: pos, Color: vmath.Vec4{1, 1, 1, 1},
				Normal: face.n,
				UV0:    [2]float32{pos[0]*0.5 + pos[2]*0.5, pos[1] * 0.5},
			})
		}
		m.Quad(ids[0], ids[1], ids[2], ids[3])
	}
}

// buildShadowVolume constructs a closed shadow volume mesh for a box
// occluder lit by a point light: the near cap (light-facing faces),
// the far cap (those faces projected away from the light, winding
// reversed) and side quads along the silhouette edges.
func buildShadowVolume(m *Mesh, b box, lightPos v3, extrude float32) {
	project := func(p v3) v3 {
		return add3(p, scale3(norm3(sub3(p, lightPos)), extrude))
	}
	front := [6]bool{}
	for fi, face := range boxFaces {
		faceCenter := scale3(add3(add3(b.corner(face.idx[0]), b.corner(face.idx[1])),
			add3(b.corner(face.idx[2]), b.corner(face.idx[3]))), 0.25)
		front[fi] = dot3(face.n, sub3(lightPos, faceCenter)) > 0
	}
	addQuad := func(a, bb, c, d v3, col vmath.Vec4) {
		i0 := m.Add(Vertex{Pos: a, Color: col})
		i1 := m.Add(Vertex{Pos: bb, Color: col})
		i2 := m.Add(Vertex{Pos: c, Color: col})
		i3 := m.Add(Vertex{Pos: d, Color: col})
		m.Quad(i0, i1, i2, i3)
	}
	white := vmath.Vec4{1, 1, 1, 1}
	for fi, face := range boxFaces {
		if !front[fi] {
			continue
		}
		c0 := b.corner(face.idx[0])
		c1 := b.corner(face.idx[1])
		c2 := b.corner(face.idx[2])
		c3 := b.corner(face.idx[3])
		// Near cap: the face itself.
		addQuad(c0, c1, c2, c3, white)
		// Far cap: projected, winding reversed.
		addQuad(project(c3), project(c2), project(c1), project(c0), white)
		// Sides along silhouette edges (edges shared with a back
		// face). Edge (a -> b) in this face's CCW winding.
		corners := [4]v3{c0, c1, c2, c3}
		for e := 0; e < 4; e++ {
			a := face.idx[e]
			bb := face.idx[(e+1)%4]
			if !edgeIsSilhouette(front, a, bb, fi) {
				continue
			}
			va, vb := corners[e], corners[(e+1)%4]
			addQuad(vb, va, project(va), project(vb), white)
		}
	}
}

// edgeIsSilhouette reports whether the edge (a, b) of face fi borders
// a back face.
func edgeIsSilhouette(front [6]bool, a, b, fi int) bool {
	for oi, other := range boxFaces {
		if oi == fi {
			continue
		}
		hasA, hasB := false, false
		for _, ci := range other.idx {
			if ci == a {
				hasA = true
			}
			if ci == b {
				hasB = true
			}
		}
		if hasA && hasB {
			return !front[oi]
		}
	}
	return false
}
