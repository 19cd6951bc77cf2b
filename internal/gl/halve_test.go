package gl

import (
	"fmt"
	"math/rand"
	"testing"

	"attila/internal/emu/texemu"
	"attila/internal/isa"
)

// halveModel is the per-texel box filter halveInto replaced: every
// output texel sums its 2x2 block through the clamping At.
func (im *Image) halveModel() *Image {
	w, h := im.W/2, im.H/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum [4]int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					c := im.At(x*2+dx, y*2+dy)
					for ch := 0; ch < 4; ch++ {
						sum[ch] += int(c[ch])
					}
				}
			}
			out.Set(x, y, texemu.RGBA{
				byte(sum[0] / 4), byte(sum[1] / 4), byte(sum[2] / 4), byte(sum[3] / 4),
			})
		}
	}
	return out
}

// TestHalveMatchesModel walks whole mip chains through one mipScratch
// — odd, non-square, one-texel-wide and one-texel images among them —
// and wants every level equal to the model's chain.
func TestHalveMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{
		{1, 1}, {2, 1}, {1, 2}, {1, 7}, {9, 1}, {3, 3}, {5, 7}, {7, 4},
		{16, 16}, {33, 17}, {64, 8}, {100, 100}, {256, 1},
	} {
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			img := NewImage(dims[0], dims[1])
			for i := range img.Pix {
				rng.Read(img.Pix[i][:])
			}
			var scratch mipScratch
			got, want := img, img
			for l := 0; got.W > 1 || got.H > 1; l++ {
				got, want = scratch.next(l, got), want.halveModel()
				if got.W != want.W || got.H != want.H {
					t.Fatalf("level %d: %dx%d, model %dx%d", l+1, got.W, got.H, want.W, want.H)
				}
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("level %d texel %d: %v, model %v", l+1, i, got.Pix[i], want.Pix[i])
					}
				}
			}
			// A one-texel image halves to itself.
			var fresh mipScratch
			if one := fresh.next(0, got); one.W != 1 || one.H != 1 || one.Pix[0] != got.Pix[0] {
				t.Fatalf("1x1 halves to %dx%d %v", one.W, one.H, one.Pix)
			}
		})
	}
}

// TestEncodeLevelTilesMatchAt decodes every tile encodeLevel writes and
// wants each texel to be the clamped At of its position: the row-copy
// path for tiles inside the level, the clamping path for tiles that
// overhang its right or bottom edge or a level smaller than a tile.
func TestEncodeLevelTilesMatchAt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {16, 9}, {20, 32}, {100, 36}} {
		img := NewImage(dims[0], dims[1])
		for i := range img.Pix {
			rng.Read(img.Pix[i][:])
		}
		tex := &texemu.Texture{Target: isa.Tex2D, Format: texemu.FmtRGBA8,
			Width: img.W, Height: img.H, Depth: 1, Levels: 1}
		data := encodeLevel(tex, 0, img)
		tilesX, tilesY := tex.LevelTiles(0)
		const n = texemu.TileTexels
		var tile [n * n]texemu.RGBA
		for ty := 0; ty < tilesY; ty++ {
			for tx := 0; tx < tilesX; tx++ {
				texemu.DecodeTile(tex.Format, data[(ty*tilesX+tx)*tex.Format.TileBytes():], &tile)
				for i, got := range tile {
					x, y := tx*n+i%n, ty*n+i/n
					if want := img.At(x, y); got != want {
						t.Fatalf("%dx%d (%d,%d): %v, At %v", img.W, img.H, x, y, got, want)
					}
				}
			}
		}
	}
}
