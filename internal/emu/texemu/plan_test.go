package texemu

import (
	"math"
	"math/rand"
	"testing"

	"attila/internal/isa"
	"attila/internal/vmath"
)

// The planner of ab1d5eb, kept as the reference: the level decision
// taken once per lane per anisotropic position, texels identified by
// coordinates only, wrapping by % and fix-up, and a tile address worked
// out per texel when it is fetched.

// refTexel is a texel as the reference planner names it: by face,
// level, slice and coordinates.
type refTexel struct {
	Face, Level, Slice, X, Y int
	W                        float32
}

type refPlan struct {
	Texels          []refTexel
	BilinearSamples int
}

func refPlanInto(t *Texture, plan *refPlan, coord vmath.Vec4, info LODInfo) {
	plan.Texels = plan.Texels[:0]
	plan.BilinearSamples = 0
	n := info.N
	if n < 1 {
		n = 1
	}
	w := 1 / float32(n)
	start := -float32(n-1) / 2
	for i := 0; i < n; i++ {
		o := start + float32(i)
		pos := coord
		pos[0] += o * info.DS
		pos[1] += o * info.DT
		refPlanIsotropic(t, plan, pos, info.Lod, w)
	}
}

func refPlanIsotropic(t *Texture, plan *refPlan, coord vmath.Vec4, lod, weight float32) {
	face := 0
	s, tt, r := coord[0], coord[1], coord[2]
	if t.Target == isa.TexCube {
		face, s, tt = cubeFace(coord)
	}

	magnified := lod <= 0
	filter := t.MinFilter
	if magnified || !t.MinFilter.mipmapped() {
		if magnified {
			filter = t.MagFilter
		}
		lv := 0
		if !magnified && t.MinFilter.mipmapped() {
			lv = t.clampLevel(int(lod + 0.5))
		}
		plan.BilinearSamples++
		refPlanLevel(t, plan, face, lv, s, tt, r, weight, filter.linearInLevel() || filter == FilterLinear)
		return
	}

	if filter.mipLinear() {
		l0 := t.clampLevel(int(math.Floor(float64(lod))))
		l1 := t.clampLevel(l0 + 1)
		frac := lod - float32(math.Floor(float64(lod)))
		if l1 == l0 {
			frac = 0
		}
		plan.BilinearSamples += 2
		if frac < 1 {
			refPlanLevel(t, plan, face, l0, s, tt, r, weight*(1-frac), filter.linearInLevel())
		}
		if frac > 0 {
			refPlanLevel(t, plan, face, l1, s, tt, r, weight*frac, filter.linearInLevel())
		}
	} else {
		lv := t.clampLevel(int(lod + 0.5))
		plan.BilinearSamples++
		refPlanLevel(t, plan, face, lv, s, tt, r, weight, filter.linearInLevel())
	}
}

func refPlanLevel(t *Texture, plan *refPlan, face, level int, s, tt, r float32, weight float32, linear bool) {
	w, h, d := t.LevelSize(level)
	slice := 0
	if t.Target == isa.Tex3D {
		slice = refApplyWrap(t.WrapR, int(r*float32(d)), d)
	}
	if !linear {
		x := refApplyWrap(t.WrapS, int(math.Floor(float64(s*float32(w)))), w)
		y := 0
		if t.Target != isa.Tex1D {
			y = refApplyWrap(t.WrapT, int(math.Floor(float64(tt*float32(h)))), h)
		}
		plan.Texels = append(plan.Texels, refTexel{Face: face, Level: level, Slice: slice, X: x, Y: y, W: weight})
		return
	}
	fx := s*float32(w) - 0.5
	fy := tt*float32(h) - 0.5
	x0 := int(math.Floor(float64(fx)))
	y0 := int(math.Floor(float64(fy)))
	ax := fx - float32(x0)
	ay := fy - float32(y0)
	if t.Target == isa.Tex1D {
		y0, ay = 0, 0
	}
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			wgt := weight
			if dx == 0 {
				wgt *= 1 - ax
			} else {
				wgt *= ax
			}
			if dy == 0 {
				wgt *= 1 - ay
			} else {
				wgt *= ay
			}
			if wgt == 0 {
				continue
			}
			x := refApplyWrap(t.WrapS, x0+dx, w)
			y := y0 + dy
			if t.Target != isa.Tex1D {
				y = refApplyWrap(t.WrapT, y0+dy, h)
			} else {
				y = 0
			}
			plan.Texels = append(plan.Texels, refTexel{Face: face, Level: level, Slice: slice, X: x, Y: y, W: wgt})
		}
	}
}

func refApplyWrap(w Wrap, i, n int) int {
	switch w {
	case WrapRepeat:
		i %= n
		if i < 0 {
			i += n
		}
	case WrapClamp:
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
	case WrapMirror:
		period := 2 * n
		i %= period
		if i < 0 {
			i += period
		}
		if i >= n {
			i = period - 1 - i
		}
	}
	return i
}

func refTileAddr(t *Texture, face, level, slice, x, y int) (addr uint32, texelIdx int) {
	tilesX, tilesY := t.LevelTiles(level)
	tileX, tileY := x/TileTexels, y/TileTexels
	idx := (slice*tilesY+tileY)*tilesX + tileX
	addr = t.Base[face][level] + uint32(idx*t.Format.TileBytes())
	texelIdx = (y%TileTexels)*TileTexels + x%TileTexels
	return addr, texelIdx
}

func refSampleQuad(t *Texture, mem MemReader, coords [4]vmath.Vec4, mode Mode) [4]vmath.Vec4 {
	lodArg := float32(0)
	if mode == ModeBias || mode == ModeLod {
		lodArg = coords[0][3]
	}
	info := t.QuadLOD(coords, mode, lodArg)
	var out [4]vmath.Vec4
	for l := 0; l < 4; l++ {
		var plan refPlan
		refPlanInto(t, &plan, PrepareCoord(coords[l], mode), info)
		for _, ref := range plan.Texels {
			addr, idx := refTileAddr(t, ref.Face, ref.Level, ref.Slice, ref.X, ref.Y)
			buf := make([]byte, t.Format.TileBytes())
			mem.ReadBytes(addr, buf)
			var tile [TileTexels * TileTexels]RGBA
			DecodeTile(t.Format, buf, &tile)
			c := tile[idx]
			v := vmath.Vec4{float32(c[0]) / 255, float32(c[1]) / 255, float32(c[2]) / 255, float32(c[3]) / 255}
			out[l] = out[l].Add(v.Scale(ref.W))
		}
	}
	return out
}

// fuzzTexture is a random texture over random memory: any target,
// power-of-two and other sizes down to 1x1, any wrap, filter and
// format.
func fuzzTexture(rng *rand.Rand) (*Texture, memBuf) {
	sizes := []int{1, 2, 3, 8, 13, 16, 40, 64, 100}
	t := &Texture{
		Target: isa.TexTarget(rng.Intn(4)), Format: Format(rng.Intn(int(formatCount))),
		Width: sizes[rng.Intn(len(sizes))], Height: sizes[rng.Intn(len(sizes))], Depth: 1,
		WrapS: Wrap(rng.Intn(3)), WrapT: Wrap(rng.Intn(3)), WrapR: Wrap(rng.Intn(3)),
		MinFilter: Filter(rng.Intn(6)), MagFilter: Filter(rng.Intn(2)),
		MaxAniso: []int{1, 2, 4, 8, 16}[rng.Intn(5)],
	}
	switch t.Target {
	case isa.TexCube:
		t.Height = t.Width
	case isa.Tex3D:
		t.Depth = 1 + rng.Intn(9)
	case isa.Tex1D:
		t.Height = 1
	}
	t.Levels = 1
	for n := max(t.Width, t.Height, t.Depth); n > 1 && rng.Intn(5) > 0; n >>= 1 {
		t.Levels++
	}
	total := 0
	for f := 0; f < t.Faces(); f++ {
		for l := 0; l < t.Levels; l++ {
			t.Base[f][l] = uint32(total)
			total += t.LevelBytes(l)
		}
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	mem := make(memBuf, total)
	rng.Read(mem)
	return t, mem
}

// fuzzQuad is four lanes around a point in [-3, 5): far enough out for
// wrapped indices below zero and beyond 2n.
func fuzzQuad(rng *rand.Rand, t *Texture) [4]vmath.Vec4 {
	base := vmath.Vec4{rng.Float32()*8 - 3, rng.Float32()*8 - 3, rng.Float32()*8 - 3, rng.Float32()*4 - 1}
	step := float32(math.Exp2(rng.Float64()*9-3)) / float32(t.Width)
	dx := vmath.Vec4{step, step * (rng.Float32() - 0.5), step * rng.Float32()}
	dy := vmath.Vec4{step * (rng.Float32() - 0.5), step * float32(math.Exp2(rng.Float64()*5-2)), 0}
	return [4]vmath.Vec4{base, base.Add(dx), base.Add(dy), base.Add(dx).Add(dy)}
}

// Every plan equals the reference planner's, texel for texel and bit
// for bit; every texel carries the address TileAddr (and the formula
// TileAddr used to be) gives for its coordinates; PlanQuad is PlanInto
// per lane; SampleQuad returns the reference's bits.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	texels, trilinear, aniso := 0, 0, 0
	for i := 0; i < 400; i++ {
		tex, mem := fuzzTexture(rng)
		for j := 0; j < 25; j++ {
			coords := fuzzQuad(rng, tex)
			mode := Mode(rng.Intn(4))
			lodArg := float32(0)
			if mode == ModeBias || mode == ModeLod {
				lodArg = coords[0][3]
			}
			info := tex.QuadLOD(coords, mode, lodArg)
			var quad [4]SamplePlan
			bilinear := tex.PlanQuad(&quad, coords, mode, info)
			sum := 0
			for l := range coords {
				var want refPlan
				c := PrepareCoord(coords[l], mode)
				refPlanInto(tex, &want, c, info)
				got := tex.Plan(c, info)
				if got.BilinearSamples != want.BilinearSamples || len(got.Texels) != len(want.Texels) {
					t.Fatalf("texture %d quad %d lane %d: %d texels in %d samples, reference %d in %d (%+v, %+v)",
						i, j, l, len(got.Texels), got.BilinearSamples, len(want.Texels), want.BilinearSamples, tex, info)
				}
				sum += got.BilinearSamples
				for k, ref := range got.Texels {
					w := want.Texels[k]
					addr, idx := refTileAddr(tex, w.Face, w.Level, w.Slice, w.X, w.Y)
					if ref.Addr != addr || int(ref.Idx) != idx || math.Float32bits(ref.W) != math.Float32bits(w.W) {
						t.Fatalf("texture %d quad %d lane %d texel %d: %+v, reference %+v at %#x, %d (%+v, %+v)",
							i, j, l, k, ref, w, addr, idx, tex, info)
					}
					if a, ix := tex.TileAddr(w.Face, w.Level, w.Slice, w.X, w.Y); a != addr || ix != idx {
						t.Fatalf("texel %+v: TileAddr gives %#x, %d, reference %#x, %d", w, a, ix, addr, idx)
					}
					if quad[l].Texels[k] != ref {
						t.Fatalf("lane %d texel %d: PlanQuad %+v, PlanInto %+v", l, k, quad[l].Texels[k], ref)
					}
				}
				if len(quad[l].Texels) != len(got.Texels) || quad[l].BilinearSamples != got.BilinearSamples {
					t.Fatalf("lane %d: PlanQuad plans %d texels in %d samples, PlanInto %d in %d",
						l, len(quad[l].Texels), quad[l].BilinearSamples, len(got.Texels), got.BilinearSamples)
				}
				texels += len(got.Texels)
			}
			if bilinear != sum {
				t.Fatalf("PlanQuad counts %d bilinear samples, its lanes %d", bilinear, sum)
			}
			if info.N > 1 {
				aniso++
			}
			if quad[0].BilinearSamples == 2*max(info.N, 1) {
				trilinear++
			}
			got, want := tex.SampleQuad(mem, coords, mode), refSampleQuad(tex, mem, coords, mode)
			for l := range got {
				for c := range got[l] {
					if math.Float32bits(got[l][c]) != math.Float32bits(want[l][c]) {
						t.Fatalf("texture %d quad %d: SampleQuad %v, reference %v (%+v)", i, j, got, want, tex)
					}
				}
			}
		}
	}
	if texels < 100_000 || trilinear < 500 || aniso < 500 {
		t.Fatalf("%d texels, %d trilinear quads, %d anisotropic quads: the inputs miss a path", texels, trilinear, aniso)
	}
}

// Wrapping by mask is wrapping by %, and so is wrapping a footprint's
// pair of indices: for every mode, for sizes that are and are not
// powers of two, for indices from well below zero to well beyond 2n.
func TestApplyWrapMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 12, 64, 100, 4096} {
		for w := WrapRepeat; w <= WrapMirror; w++ {
			for i := -5*n - 3; i <= 5*n+3; i++ {
				if got, want := applyWrap(w, i, n), refApplyWrap(w, i, n); got != want {
					t.Fatalf("applyWrap(%d, %d, %d) = %d, by modulo %d", w, i, n, got, want)
				}
				if a, b := wrapPair(w, i, n); a != refApplyWrap(w, i, n) || b != refApplyWrap(w, i+1, n) {
					t.Fatalf("wrapPair(%d, %d, %d) = %d, %d, by modulo %d, %d", w, i, n, a, b, refApplyWrap(w, i, n), refApplyWrap(w, i+1, n))
				}
			}
		}
	}
}

func benchQuads(rng *rand.Rand, n int, dx, dy float32) [][4]vmath.Vec4 {
	const texel = 1.0 / 256
	out := make([][4]vmath.Vec4, n)
	for i := range out {
		u, v := rng.Float32(), rng.Float32()
		out[i] = [4]vmath.Vec4{
			{u, v, 0, 1}, {u + dx*texel, v, 0, 1},
			{u, v + dy*texel, 0, 1}, {u + dx*texel, v + dy*texel, 0, 1},
		}
	}
	return out
}

// BenchmarkPlanQuad is what a texture request costs before its first
// texel is fetched: QuadLOD and the four lanes' plans, tile addresses
// included, on the 256x256 mipmapped texture and the footprints of the
// benchmark's texemu kernels.
func BenchmarkPlanQuad(b *testing.B) {
	for _, c := range []struct {
		name   string
		min    Filter
		aniso  int
		dx, dy float32
	}{
		{"bilinear", FilterLinear, 1, 1, 1},
		{"trilinear", FilterLinearMipLinear, 1, 2.5, 2.5},
		{"aniso8", FilterLinearMipLinear, 8, 12, 1.5},
	} {
		b.Run(c.name, func(b *testing.B) {
			tex, _ := buildTexture(256, 256, 9, FmtRGBA8, func(_, _, _ int) RGBA { return RGBA{} })
			tex.MinFilter, tex.MagFilter, tex.MaxAniso = c.min, FilterLinear, c.aniso
			qs := benchQuads(rand.New(rand.NewSource(1)), 1024, c.dx, c.dy)
			var plans [4]SamplePlan
			plan := func(q [4]vmath.Vec4) int {
				return tex.PlanQuad(&plans, q, ModeNormal, tex.QuadLOD(q, ModeNormal, 0))
			}
			for _, q := range qs {
				plan(q) // grow the plans' backing arrays
			}
			sink := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += plan(qs[i%len(qs)])
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("nothing planned")
			}
			if allocs := testing.AllocsPerRun(100, func() { plan(qs[0]) }); allocs != 0 {
				b.Fatalf("%v allocations per planned quad", allocs)
			}
		})
	}
}
