package texemu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"attila/internal/isa"
	"attila/internal/vmath"
)

type memBuf []byte

func (m memBuf) ReadBytes(addr uint32, dst []byte) {
	copy(dst, m[addr:])
}

// buildTexture uploads a mip chain into a memBuf using a texel
// generator and returns the descriptor.
func buildTexture(w, h, levels int, f Format, gen func(level, x, y int) RGBA) (*Texture, memBuf) {
	t := &Texture{
		Target: isa.Tex2D, Format: f,
		Width: w, Height: h, Depth: 1, Levels: levels,
		MinFilter: FilterNearest, MagFilter: FilterNearest,
		MaxAniso: 1,
	}
	total := 0
	for l := 0; l < levels; l++ {
		t.Base[0][l] = uint32(total)
		total += t.LevelBytes(l)
	}
	mem := make(memBuf, total)
	for l := 0; l < levels; l++ {
		lw, lh, _ := t.LevelSize(l)
		tilesX, tilesY := t.LevelTiles(l)
		for ty := 0; ty < tilesY; ty++ {
			for tx := 0; tx < tilesX; tx++ {
				var tile [TileTexels * TileTexels]RGBA
				for y := 0; y < TileTexels; y++ {
					for x := 0; x < TileTexels; x++ {
						px, py := tx*TileTexels+x, ty*TileTexels+y
						if px < lw && py < lh {
							tile[y*TileTexels+x] = gen(l, px, py)
						}
					}
				}
				addr, _ := t.TileAddr(0, l, 0, tx*TileTexels, ty*TileTexels)
				EncodeTile(f, &tile, mem[addr:])
			}
		}
	}
	return t, mem
}

func TestTileRoundTripRGBA8(t *testing.T) {
	var tile, back [64]RGBA
	rng := rand.New(rand.NewSource(3))
	for i := range tile {
		tile[i] = RGBA{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	buf := make([]byte, FmtRGBA8.TileBytes())
	EncodeTile(FmtRGBA8, &tile, buf)
	DecodeTile(FmtRGBA8, buf, &back)
	if tile != back {
		t.Fatal("RGBA8 tile roundtrip mismatch")
	}
}

func TestTileRoundTripL8(t *testing.T) {
	var tile, back [64]RGBA
	for i := range tile {
		l := byte(i * 4)
		tile[i] = RGBA{l, l, l, 255}
	}
	buf := make([]byte, FmtL8.TileBytes())
	EncodeTile(FmtL8, &tile, buf)
	DecodeTile(FmtL8, buf, &back)
	if tile != back {
		t.Fatal("L8 tile roundtrip mismatch")
	}
}

func TestDXT1TwoColorExact(t *testing.T) {
	// Two colors that are fixed points of the 565 round trip
	// (x -> x>>3 -> (v<<3)|(v>>2)) must survive DXT1 exactly.
	a := RGBA{132, 130, 132, 255}
	b := RGBA{0, 0, 0, 255}
	var tile, back [64]RGBA
	for i := range tile {
		if i%2 == 0 {
			tile[i] = a
		} else {
			tile[i] = b
		}
	}
	buf := make([]byte, FmtDXT1.TileBytes())
	EncodeTile(FmtDXT1, &tile, buf)
	DecodeTile(FmtDXT1, buf, &back)
	if tile != back {
		t.Fatalf("DXT1 two-color roundtrip mismatch: %v vs %v", tile[0], back[0])
	}
}

func TestDXT1CompressionRatio(t *testing.T) {
	if FmtDXT1.TileBytes() != 32 {
		t.Fatalf("DXT1 tile bytes: %d", FmtDXT1.TileBytes())
	}
	if FmtRGBA8.TileBytes() != 256 {
		t.Fatalf("RGBA8 tile bytes: %d", FmtRGBA8.TileBytes())
	}
	if r := FmtRGBA8.TileBytes() / FmtDXT1.TileBytes(); r != 8 {
		t.Fatalf("DXT1 ratio: %d", r)
	}
}

func TestDXT3AlphaPreserved(t *testing.T) {
	var tile, back [64]RGBA
	for i := range tile {
		// 4-bit-representable alpha values.
		a := byte((i % 16) * 17)
		tile[i] = RGBA{128, 128, 128, a}
	}
	buf := make([]byte, FmtDXT3.TileBytes())
	EncodeTile(FmtDXT3, &tile, buf)
	DecodeTile(FmtDXT3, buf, &back)
	for i := range tile {
		if back[i][3] != tile[i][3] {
			t.Fatalf("texel %d alpha: want %d got %d", i, tile[i][3], back[i][3])
		}
	}
}

func TestDXT5AlphaEndpointsExact(t *testing.T) {
	var tile, back [64]RGBA
	for i := range tile {
		a := byte(0)
		if i%2 == 0 {
			a = 200
		}
		tile[i] = RGBA{100, 100, 100, a}
	}
	buf := make([]byte, FmtDXT5.TileBytes())
	EncodeTile(FmtDXT5, &tile, buf)
	DecodeTile(FmtDXT5, buf, &back)
	for i := range tile {
		if back[i][3] != tile[i][3] {
			t.Fatalf("texel %d alpha: want %d got %d", i, tile[i][3], back[i][3])
		}
	}
}

func TestDXTCompressionErrorBounded(t *testing.T) {
	// Random tiles must decompress within a tolerable per-channel
	// error for a 2-endpoint encoder (worst case is bounded by the
	// palette spread; use smooth data for a realistic bound).
	rng := rand.New(rand.NewSource(9))
	var tile, back [64]RGBA
	base := byte(rng.Intn(200))
	for i := range tile {
		v := base + byte(rng.Intn(40))
		tile[i] = RGBA{v, v, v, 255}
	}
	buf := make([]byte, FmtDXT1.TileBytes())
	EncodeTile(FmtDXT1, &tile, buf)
	DecodeTile(FmtDXT1, buf, &back)
	for i := range tile {
		for ch := 0; ch < 3; ch++ {
			d := int(tile[i][ch]) - int(back[i][ch])
			if d < 0 {
				d = -d
			}
			if d > 24 {
				t.Fatalf("texel %d ch %d error %d too large", i, ch, d)
			}
		}
	}
}

func TestLevelGeometry(t *testing.T) {
	tx := &Texture{Target: isa.Tex2D, Format: FmtRGBA8, Width: 64, Height: 32, Depth: 1, Levels: 7, MaxAniso: 1}
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
	w, h, _ := tx.LevelSize(0)
	if w != 64 || h != 32 {
		t.Fatalf("level 0: %dx%d", w, h)
	}
	w, h, _ = tx.LevelSize(6)
	if w != 1 || h != 1 {
		t.Fatalf("level 6: %dx%d", w, h)
	}
	tX, tY := tx.LevelTiles(0)
	if tX != 8 || tY != 4 {
		t.Fatalf("tiles: %dx%d", tX, tY)
	}
	if tx.LevelBytes(0) != 8*4*256 {
		t.Fatalf("level bytes: %d", tx.LevelBytes(0))
	}
	// Total bytes must be the sum over levels.
	sum := 0
	for l := 0; l < 7; l++ {
		sum += tx.LevelBytes(l)
	}
	if tx.TotalBytes() != sum {
		t.Fatalf("total: %d vs %d", tx.TotalBytes(), sum)
	}
}

func TestTileAddrDistinctness(t *testing.T) {
	tx := &Texture{Target: isa.Tex2D, Format: FmtRGBA8, Width: 32, Height: 32, Depth: 1, Levels: 1, MaxAniso: 1}
	seen := map[uint32]bool{}
	for y := 0; y < 32; y += TileTexels {
		for x := 0; x < 32; x += TileTexels {
			addr, _ := tx.TileAddr(0, 0, 0, x, y)
			if seen[addr] {
				t.Fatalf("tile address %d reused", addr)
			}
			seen[addr] = true
		}
	}
	// Texels within one tile share the address but have distinct
	// indices.
	a0, i0 := tx.TileAddr(0, 0, 0, 1, 1)
	a1, i1 := tx.TileAddr(0, 0, 0, 2, 1)
	if a0 != a1 || i0 == i1 {
		t.Fatalf("within-tile addressing wrong: %d/%d vs %d/%d", a0, i0, a1, i1)
	}
}

func TestApplyWrap(t *testing.T) {
	cases := []struct {
		w       Wrap
		i, n, r int
	}{
		{WrapRepeat, 9, 8, 1},
		{WrapRepeat, -1, 8, 7},
		{WrapClamp, 9, 8, 7},
		{WrapClamp, -3, 8, 0},
		{WrapMirror, 8, 8, 7},
		{WrapMirror, 9, 8, 6},
		{WrapMirror, -1, 8, 0},
		{WrapMirror, 3, 8, 3},
	}
	for _, c := range cases {
		if got := applyWrap(c.w, c.i, c.n); got != c.r {
			t.Errorf("applyWrap(%v, %d, %d) = %d, want %d", c.w, c.i, c.n, got, c.r)
		}
	}
}

func TestNearestSampleExact(t *testing.T) {
	tex, mem := buildTexture(8, 8, 1, FmtRGBA8, func(_, x, y int) RGBA {
		return RGBA{byte(x * 30), byte(y * 30), 0, 255}
	})
	coords := [4]vmath.Vec4{}
	for l := range coords {
		// Sample the center of texel (2,5).
		coords[l] = vmath.Vec4{(2 + 0.5) / 8, (5 + 0.5) / 8, 0, 0}
	}
	out := tex.SampleQuad(mem, coords, ModeNormal)
	want := RGBA{60, 150, 0, 255}.Vec()
	if out[0] != want {
		t.Fatalf("nearest sample: got %v want %v", out[0], want)
	}
}

func TestBilinearAtTexelCenterIsExact(t *testing.T) {
	tex, mem := buildTexture(8, 8, 1, FmtRGBA8, func(_, x, y int) RGBA {
		return RGBA{byte(x * 30), byte(y * 30), 0, 255}
	})
	tex.MagFilter = FilterLinear
	tex.MinFilter = FilterLinear
	var coords [4]vmath.Vec4
	for l := range coords {
		coords[l] = vmath.Vec4{(3 + 0.5) / 8, (4 + 0.5) / 8, 0, 0}
	}
	out := tex.SampleQuad(mem, coords, ModeNormal)
	want := RGBA{90, 120, 0, 255}.Vec()
	for i := 0; i < 4; i++ {
		if math.Abs(float64(out[0][i]-want[i])) > 1e-5 {
			t.Fatalf("bilinear center: got %v want %v", out[0], want)
		}
	}
}

func TestBilinearMidpointBlends(t *testing.T) {
	tex, mem := buildTexture(8, 8, 1, FmtRGBA8, func(_, x, _ int) RGBA {
		if x < 4 {
			return RGBA{0, 0, 0, 255}
		}
		return RGBA{200, 0, 0, 255}
	})
	tex.MagFilter = FilterLinear
	var coords [4]vmath.Vec4
	for l := range coords {
		coords[l] = vmath.Vec4{0.5, 0.25, 0, 0} // boundary between texel 3 and 4
	}
	out := tex.SampleQuad(mem, coords, ModeNormal)
	want := float32(100.0 / 255.0)
	if math.Abs(float64(out[0][0]-want)) > 0.01 {
		t.Fatalf("boundary blend: got %v want %v", out[0][0], want)
	}
}

func TestPlanWeightsSumToOneProperty(t *testing.T) {
	tex, _ := buildTexture(32, 32, 6, FmtRGBA8, func(_, _, _ int) RGBA { return RGBA{255, 255, 255, 255} })
	tex.MinFilter = FilterLinearMipLinear
	tex.MagFilter = FilterLinear
	tex.MaxAniso = 8
	f := func(s, tt float32, lodRaw float32, nRaw uint8) bool {
		s = float32(math.Mod(float64(s), 4))
		tt = float32(math.Mod(float64(tt), 4))
		lod := float32(math.Mod(float64(lodRaw), 6))
		info := LODInfo{Lod: lod, N: int(nRaw%4) + 1, DS: 0.01, DT: 0.005}
		plan := tex.Plan(vmath.Vec4{s, tt, 0, 0}, info)
		var sum float32
		for _, ref := range plan.Texels {
			sum += ref.W
		}
		return math.Abs(float64(sum-1)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuadLODSelectsCorrectLevel(t *testing.T) {
	tex, _ := buildTexture(64, 64, 7, FmtRGBA8, func(_, _, _ int) RGBA { return RGBA{} })
	tex.MinFilter = FilterLinearMipLinear
	// One texel per fragment: derivative of s across x is 1/64.
	mk := func(step float32) [4]vmath.Vec4 {
		return [4]vmath.Vec4{
			{0.5, 0.5, 0, 0},
			{0.5 + step, 0.5, 0, 0},
			{0.5, 0.5 + step, 0, 0},
			{0.5 + step, 0.5 + step, 0, 0},
		}
	}
	if lod := tex.QuadLOD(mk(1.0/64), ModeNormal, 0).Lod; math.Abs(float64(lod)) > 1e-5 {
		t.Fatalf("1:1 lod: %v", lod)
	}
	if lod := tex.QuadLOD(mk(2.0/64), ModeNormal, 0).Lod; math.Abs(float64(lod-1)) > 1e-5 {
		t.Fatalf("2:1 lod: %v", lod)
	}
	if lod := tex.QuadLOD(mk(8.0/64), ModeNormal, 0).Lod; math.Abs(float64(lod-3)) > 1e-5 {
		t.Fatalf("8:1 lod: %v", lod)
	}
	// Bias shifts lod.
	if lod := tex.QuadLOD(mk(2.0/64), ModeBias, 1.5).Lod; math.Abs(float64(lod-2.5)) > 1e-5 {
		t.Fatalf("biased lod: %v", lod)
	}
	// Explicit lod mode ignores derivatives.
	if lod := tex.QuadLOD(mk(8.0/64), ModeLod, 1.25).Lod; lod != 1.25 {
		t.Fatalf("explicit lod: %v", lod)
	}
}

func TestAnisotropicFootprint(t *testing.T) {
	tex, _ := buildTexture(64, 64, 7, FmtRGBA8, func(_, _, _ int) RGBA { return RGBA{} })
	tex.MaxAniso = 8
	tex.MinFilter = FilterLinearMipLinear
	// Footprint stretched 4x in x: du/dx = 4 texels, du/dy = 1 texel.
	coords := [4]vmath.Vec4{
		{0.5, 0.5, 0, 0},
		{0.5 + 4.0/64, 0.5, 0, 0},
		{0.5, 0.5 + 1.0/64, 0, 0},
		{0.5 + 4.0/64, 0.5 + 1.0/64, 0, 0},
	}
	info := tex.QuadLOD(coords, ModeNormal, 0)
	if info.N != 4 {
		t.Fatalf("aniso N: %d", info.N)
	}
	// lod should be near the minor-axis footprint (log2(1) = 0), not
	// the major axis (log2(4) = 2).
	if math.Abs(float64(info.Lod)) > 0.3 {
		t.Fatalf("aniso lod: %v", info.Lod)
	}
	// Isotropic texture (MaxAniso 1) must not split samples.
	tex.MaxAniso = 1
	info = tex.QuadLOD(coords, ModeNormal, 0)
	if info.N != 1 {
		t.Fatalf("isotropic N: %d", info.N)
	}
	if math.Abs(float64(info.Lod-2)) > 1e-4 {
		t.Fatalf("isotropic lod: %v", info.Lod)
	}
}

func TestTrilinearPlanBlendsTwoLevels(t *testing.T) {
	tex, _ := buildTexture(64, 64, 7, FmtRGBA8, func(_, _, _ int) RGBA { return RGBA{} })
	tex.MinFilter = FilterLinearMipLinear
	plan := tex.Plan(vmath.Vec4{0.3, 0.3, 0, 0}, LODInfo{Lod: 1.5, N: 1})
	// A texel's level is the one whose tile array holds its address.
	levels := map[int]bool{}
	for _, ref := range plan.Texels {
		level := -1
		for l := 0; l < tex.Levels; l++ {
			if ref.Addr >= tex.Base[0][l] && ref.Addr < tex.Base[0][l]+uint32(tex.LevelBytes(l)) {
				level = l
			}
		}
		levels[level] = true
	}
	if !levels[1] || !levels[2] || len(levels) != 2 {
		t.Fatalf("trilinear levels: %v", levels)
	}
	if plan.BilinearSamples != 2 {
		t.Fatalf("trilinear bilinear samples: %d", plan.BilinearSamples)
	}
}

func TestProjectiveCoords(t *testing.T) {
	c := PrepareCoord(vmath.Vec4{2, 4, 0, 2}, ModeProj)
	if c != (vmath.Vec4{1, 2, 0, 1}) {
		t.Fatalf("TXP division: %v", c)
	}
	c = PrepareCoord(vmath.Vec4{2, 4, 0, 2}, ModeNormal)
	if c != (vmath.Vec4{2, 4, 0, 2}) {
		t.Fatalf("non-proj modified: %v", c)
	}
}

func TestCubeFaceSelection(t *testing.T) {
	cases := []struct {
		dir  vmath.Vec4
		face int
	}{
		{vmath.Vec4{1, 0, 0, 0}, 0},
		{vmath.Vec4{-1, 0, 0, 0}, 1},
		{vmath.Vec4{0, 1, 0, 0}, 2},
		{vmath.Vec4{0, -1, 0, 0}, 3},
		{vmath.Vec4{0, 0, 1, 0}, 4},
		{vmath.Vec4{0, 0, -1, 0}, 5},
	}
	for _, c := range cases {
		face, s, tt := cubeFace(c.dir)
		if face != c.face {
			t.Errorf("dir %v: face %d want %d", c.dir, face, c.face)
		}
		if math.Abs(float64(s-0.5)) > 1e-6 || math.Abs(float64(tt-0.5)) > 1e-6 {
			t.Errorf("dir %v: center (%v,%v)", c.dir, s, tt)
		}
	}
}

func TestMipLevelIsolation(t *testing.T) {
	// Each level is filled with a distinct color; explicit-lod
	// sampling must return exactly that level's color.
	tex, mem := buildTexture(32, 32, 6, FmtRGBA8, func(level, _, _ int) RGBA {
		return RGBA{byte(level * 40), 0, 0, 255}
	})
	tex.MinFilter = FilterNearestMipNearest
	for l := 0; l < 6; l++ {
		var coords [4]vmath.Vec4
		for i := range coords {
			coords[i] = vmath.Vec4{0.4, 0.4, 0, float32(l)}
		}
		out := tex.SampleQuad(mem, coords, ModeLod)
		want := float32(l*40) / 255
		if math.Abs(float64(out[0][0]-want)) > 1e-5 {
			t.Fatalf("level %d: got %v want %v", l, out[0][0], want)
		}
	}
}

func TestValidateRejectsBadDescriptors(t *testing.T) {
	bad := []*Texture{
		{Target: isa.Tex2D, Width: 0, Height: 8, Depth: 1, Levels: 1, MaxAniso: 1},
		{Target: isa.Tex2D, Width: 8, Height: 8, Depth: 1, Levels: 0, MaxAniso: 1},
		{Target: isa.TexCube, Width: 8, Height: 16, Depth: 1, Levels: 1, MaxAniso: 1},
		{Target: isa.Tex2D, Width: 8, Height: 8, Depth: 1, Levels: 1, MaxAniso: 0},
		{Target: isa.Tex2D, Width: 8, Height: 8, Depth: 1, Levels: 1, MaxAniso: 1, Format: formatCount},
	}
	for i, tx := range bad {
		if err := tx.Validate(); err == nil {
			t.Errorf("descriptor %d accepted", i)
		}
	}
}
