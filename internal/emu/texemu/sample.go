package texemu

import (
	"math"

	"attila/internal/isa"
	"attila/internal/vmath"
)

// Mode distinguishes the texture instruction variants at the emulator
// level (mirrors shaderemu's TexMode without importing it).
type Mode uint8

// Sampling modes.
const (
	ModeNormal Mode = iota // lod from quad derivatives
	ModeBias               // derivative lod + bias from coord.w
	ModeProj               // coords divided by coord.w
	ModeLod                // explicit lod in coord.w
)

// TexelRef is one texel contributing to a filtered sample: the tile
// that holds it, its index in the decoded tile, and its filter weight.
// The planner resolves the tile, so fetching the texel is one tile
// lookup; Addr and Idx are what TileAddr gives for the texel's face,
// level, slice and coordinates.
type TexelRef struct {
	Addr uint32
	Idx  int32
	W    float32
}

// SamplePlan lists every texel one fragment's filtered sample needs
// plus the bilinear-sample count used by the timing model (the
// texture unit sustains one bilinear sample per cycle, a trilinear
// sample every two cycles — paper §2.2).
type SamplePlan struct {
	Texels          []TexelRef
	BilinearSamples int
}

// LODInfo is the per-quad level-of-detail decision: the mip lod and
// the anisotropic footprint (N sample positions stepped by (DS, DT)
// in texture coordinate space).
type LODInfo struct {
	Lod    float32
	N      int
	DS, DT float32
}

// QuadLOD computes the level of detail for a fragment quad from the
// texture coordinate derivatives across the quad. Lane layout follows
// the rasterizer: 0=(x,y), 1=(x+1,y), 2=(x,y+1), 3=(x+1,y+1).
// Anisotropy is computed for 2D targets only; other targets sample
// isotropically.
func (t *Texture) QuadLOD(coords [4]vmath.Vec4, mode Mode, lodArg float32) LODInfo {
	if mode == ModeLod {
		return LODInfo{Lod: lodArg, N: 1}
	}
	c := coords
	if mode == ModeProj {
		for i := range c {
			if w := c[i][3]; w != 0 {
				c[i] = vmath.Vec4{c[i][0] / w, c[i][1] / w, c[i][2] / w, 1}
			}
		}
	}
	w, h, _ := t.LevelSize(0)
	dudx := (c[1][0] - c[0][0]) * float32(w)
	dvdx := (c[1][1] - c[0][1]) * float32(h)
	dudy := (c[2][0] - c[0][0]) * float32(w)
	dvdy := (c[2][1] - c[0][1]) * float32(h)
	px := float32(math.Hypot(float64(dudx), float64(dvdx)))
	py := float32(math.Hypot(float64(dudy), float64(dvdy)))
	pmax, pmin := px, py
	majorX := true
	if py > px {
		pmax, pmin = py, px
		majorX = false
	}
	info := LODInfo{N: 1}
	if pmin < 1e-12 {
		pmin = 1e-12
	}
	aniso := t.MaxAniso
	if t.Target != isa.Tex2D {
		aniso = 1
	}
	if aniso > 1 && pmax > pmin {
		ratio := pmax / pmin
		if ratio > float32(aniso) {
			ratio = float32(aniso)
		}
		info.N = int(math.Ceil(float64(ratio)))
		if info.N < 1 {
			info.N = 1
		}
		// Step along the major axis between sample positions,
		// in texture coordinate units.
		var du, dv float32
		if majorX {
			du, dv = dudx/float32(w), dvdx/float32(h)
		} else {
			du, dv = dudy/float32(w), dvdy/float32(h)
		}
		info.DS = du / float32(info.N)
		info.DT = dv / float32(info.N)
		pmax = pmax / float32(info.N)
		if pmax < pmin {
			pmax = pmin
		}
	}
	if pmax < 1e-12 {
		pmax = 1e-12
	}
	info.Lod = float32(math.Log2(float64(pmax)))
	if mode == ModeBias {
		info.Lod += lodArg
	}
	return info
}

// mipLevel is one mip level a quad samples, with everything about it
// that does not depend on the sample position.
type mipLevel struct {
	level, w, h, d int
	tilesX, tilesY uint32  // tile grid of one slice
	tileBytes      uint32  // memory footprint of one tile
	weight         float32 // share of a lane's sample one footprint on this level carries
	linear         bool    // bilinear footprint (else the nearest texel)
}

func (t *Texture) mipLevel(level int, weight float32, linear bool) mipLevel {
	w, h, d := t.LevelSize(level)
	tx, ty := t.LevelTiles(level)
	return mipLevel{level, w, h, d, uint32(tx), uint32(ty), uint32(t.Format.TileBytes()), weight, linear}
}

// rowAddr is the address of the tile row holding texel row y of a
// slice of the level stored at base; colOff of a texel's column adds
// its tile within the row. Together they are the arithmetic behind
// TileAddr, done on unsigned coordinates so that dividing by the tile
// edge is a shift.
func (lv *mipLevel) rowAddr(base, slice, y uint32) uint32 {
	return base + (slice*lv.tilesY+y/TileTexels)*lv.tilesX*lv.tileBytes
}

func (lv *mipLevel) colOff(x uint32) uint32 { return x / TileTexels * lv.tileBytes }

// tileIdx is the index of texel (x, y) in its decoded tile.
func tileIdx(x, y uint32) int32 { return int32(y%TileTexels*TileTexels + x%TileTexels) }

// quadLevels is the part of a sample plan that depends only on the
// quad's LODInfo, decided once for the four lanes and every
// anisotropic position: minification or magnification, the one or two
// levels sampled, and the weight each level's footprint carries.
type quadLevels struct {
	n        int // anisotropic positions, stepped by (ds, dt)
	ds, dt   float32
	lv       [2]mipLevel
	levels   int // entries of lv in use
	bilinear int // BilinearSamples per position
}

func (t *Texture) quadLevels(info LODInfo) quadLevels {
	q := quadLevels{n: max(info.N, 1), ds: info.DS, dt: info.DT, levels: 1, bilinear: 1}
	weight := 1 / float32(q.n)
	lod := info.Lod
	switch filter := t.MinFilter; {
	case lod <= 0:
		q.lv[0] = t.mipLevel(0, weight, t.MagFilter.linearInLevel())
	case !filter.mipmapped():
		q.lv[0] = t.mipLevel(0, weight, filter.linearInLevel())
	case filter.mipLinear():
		// Trilinear: blend two adjacent levels.
		floor := math.Floor(float64(lod))
		l0 := t.clampLevel(int(floor))
		l1 := t.clampLevel(l0 + 1)
		frac := lod - float32(floor)
		if l1 == l0 {
			frac = 0
		}
		q.levels, q.bilinear = 0, 2
		if frac < 1 {
			q.lv[0] = t.mipLevel(l0, weight*(1-frac), filter.linearInLevel())
			q.levels++
		}
		if frac > 0 {
			q.lv[q.levels] = t.mipLevel(l1, weight*frac, filter.linearInLevel())
			q.levels++
		}
	default:
		q.lv[0] = t.mipLevel(t.clampLevel(int(lod+0.5)), weight, filter.linearInLevel())
	}
	return q
}

// Plan computes the texels needed to sample the texture at coord with
// the quad's LOD decision. Projective division must already be
// applied when mode was ModeProj (PrepareCoord does it).
func (t *Texture) Plan(coord vmath.Vec4, info LODInfo) SamplePlan {
	var plan SamplePlan
	t.PlanInto(&plan, coord, info)
	return plan
}

// PlanInto is Plan writing into a caller-owned plan, reusing its
// Texels backing array so steady-state sampling does not allocate.
func (t *Texture) PlanInto(plan *SamplePlan, coord vmath.Vec4, info LODInfo) {
	q := t.quadLevels(info)
	t.planLane(plan, coord, &q)
}

// PlanQuad plans the four lanes of a quad, PrepareCoord included, with
// one level decision. It returns the quad's bilinear-sample count.
func (t *Texture) PlanQuad(plans *[4]SamplePlan, coords [4]vmath.Vec4, mode Mode, info LODInfo) int {
	q := t.quadLevels(info)
	for l := range plans {
		t.planLane(&plans[l], PrepareCoord(coords[l], mode), &q)
	}
	return 4 * q.n * q.bilinear
}

// PrepareCoord applies the projective division of TXP. Call before
// Plan when sampling in ModeProj.
func PrepareCoord(coord vmath.Vec4, mode Mode) vmath.Vec4 {
	if mode == ModeProj && coord[3] != 0 {
		return vmath.Vec4{coord[0] / coord[3], coord[1] / coord[3], coord[2] / coord[3], 1}
	}
	return coord
}

// planLane plans one lane's sample: every level of q at every
// anisotropic position. The positions are centered on coord along the
// major axis: offsets -(n-1)/2 .. +(n-1)/2 steps. The plan's backing
// array is grown once to the most texels the lane can need, four per
// footprint.
func (t *Texture) planLane(plan *SamplePlan, coord vmath.Vec4, q *quadLevels) {
	texels := plan.Texels[:0]
	if most := q.n * q.levels * 4; cap(texels) < most {
		texels = make([]TexelRef, 0, most)
	}
	plan.BilinearSamples = q.n * q.bilinear
	start := -float32(q.n-1) / 2
	for i := 0; i < q.n; i++ {
		o := start + float32(i)
		face, s, tt := 0, coord[0]+o*q.ds, coord[1]+o*q.dt
		if t.Target == isa.TexCube {
			face, s, tt = cubeFace(vmath.Vec4{s, tt, coord[2], coord[3]})
		}
		for l := range q.lv[:q.levels] {
			texels = t.planLevel(texels, face, &q.lv[l], s, tt, coord[2])
		}
	}
	plan.Texels = texels
}

func (t *Texture) clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l >= t.Levels {
		return t.Levels - 1
	}
	return l
}

// planLevel appends the texels of one footprint on one level: the
// nearest texel, or the bilinear 2x2 with its zero-weight texels left
// out.
func (t *Texture) planLevel(texels []TexelRef, face int, lv *mipLevel, s, tt, r float32) []TexelRef {
	w, h := lv.w, lv.h
	slice := 0
	if t.Target == isa.Tex3D {
		slice = applyWrap(t.WrapR, int(r*float32(lv.d)), lv.d)
	}
	base := t.Base[face][lv.level]
	if !lv.linear {
		x := applyWrap(t.WrapS, int(math.Floor(float64(s*float32(w)))), w)
		y := 0
		if t.Target != isa.Tex1D {
			y = applyWrap(t.WrapT, int(math.Floor(float64(tt*float32(h)))), h)
		}
		ux, uy := uint32(x), uint32(y)
		return append(texels, TexelRef{lv.rowAddr(base, uint32(slice), uy) + lv.colOff(ux), tileIdx(ux, uy), lv.weight})
	}
	fx := s*float32(w) - 0.5
	fy := tt*float32(h) - 0.5
	x0 := int(math.Floor(float64(fx)))
	y0 := int(math.Floor(float64(fy)))
	ax := fx - float32(x0)
	ay := fy - float32(y0)
	x0, x1 := wrapPair(t.WrapS, x0, w)
	y1 := 0 // a 1D texture has row 0 only
	if t.Target == isa.Tex1D {
		y0, ay = 0, 0
	} else {
		y0, y1 = wrapPair(t.WrapT, y0, h)
	}
	ux0, ux1, uy0, uy1 := uint32(x0), uint32(x1), uint32(y0), uint32(y1)
	col0, col1 := lv.colOff(ux0), lv.colOff(ux1)
	row0, row1 := lv.rowAddr(base, uint32(slice), uy0), lv.rowAddr(base, uint32(slice), uy1)
	wx0, wx1 := lv.weight*(1-ax), lv.weight*ax // (weight·wx)·wy, the reference's order
	// planLane made room for the four texels.
	n := len(texels)
	out := texels[n : n+4]
	k := 0
	if wgt := wx0 * (1 - ay); wgt != 0 {
		out[k] = TexelRef{row0 + col0, tileIdx(ux0, uy0), wgt}
		k++
	}
	if wgt := wx1 * (1 - ay); wgt != 0 {
		out[k] = TexelRef{row0 + col1, tileIdx(ux1, uy0), wgt}
		k++
	}
	if wgt := wx0 * ay; wgt != 0 {
		out[k] = TexelRef{row1 + col0, tileIdx(ux0, uy1), wgt}
		k++
	}
	if wgt := wx1 * ay; wgt != 0 {
		out[k] = TexelRef{row1 + col1, tileIdx(ux1, uy1), wgt}
		k++
	}
	return texels[:n+k]
}

// cubeFace selects the cube map face and its 2D coordinates for a
// direction vector, following the OpenGL specification's table.
func cubeFace(dir vmath.Vec4) (face int, s, t float32) {
	x, y, z := dir[0], dir[1], dir[2]
	ax, ay, az := abs32(x), abs32(y), abs32(z)
	var sc, tc, ma float32
	switch {
	case ax >= ay && ax >= az:
		if x >= 0 {
			face, sc, tc, ma = 0, -z, -y, ax // +X
		} else {
			face, sc, tc, ma = 1, z, -y, ax // -X
		}
	case ay >= az:
		if y >= 0 {
			face, sc, tc, ma = 2, x, z, ay // +Y
		} else {
			face, sc, tc, ma = 3, x, -z, ay // -Y
		}
	default:
		if z >= 0 {
			face, sc, tc, ma = 4, x, -y, az // +Z
		} else {
			face, sc, tc, ma = 5, -x, -y, az // -Z
		}
	}
	if ma == 0 {
		return face, 0.5, 0.5
	}
	return face, (sc/ma + 1) / 2, (tc/ma + 1) / 2
}

func abs32(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// FilterPlan computes the final color: the weighted sum of the
// planned texels, fetched through the supplied function (cache reads
// in the timing path, direct memory reads in the functional path).
func FilterPlan(plan SamplePlan, fetch func(TexelRef) RGBA) vmath.Vec4 {
	var out vmath.Vec4
	for _, ref := range plan.Texels {
		out = out.Add(fetch(ref).Vec().Scale(ref.W))
	}
	return out
}

// SampleQuad is the functional convenience path: it samples all four
// lanes of a quad directly from memory, performing the full LOD,
// anisotropic, wrap and filter pipeline.
func (t *Texture) SampleQuad(mem MemReader, coords [4]vmath.Vec4, mode Mode) [4]vmath.Vec4 {
	lodArg := float32(0)
	if mode == ModeBias || mode == ModeLod {
		lodArg = coords[0][3] // bias/lod rides in w
	}
	q := t.quadLevels(t.QuadLOD(coords, mode, lodArg))
	var out [4]vmath.Vec4
	var plan SamplePlan
	var r tileReader
	for l := range out {
		t.planLane(&plan, PrepareCoord(coords[l], mode), &q)
		out[l] = FilterPlan(plan, func(ref TexelRef) RGBA { return r.texel(t, mem, ref) })
	}
	return out
}
