package texemu

import (
	"fmt"

	"attila/internal/isa"
)

// Wrap is a texture coordinate wrap mode.
type Wrap uint8

// Wrap modes.
const (
	WrapRepeat Wrap = iota
	WrapClamp       // clamp to edge
	WrapMirror
)

// Filter is a texture filtering mode. The *Mip* variants only apply
// to minification.
type Filter uint8

// Filter modes.
const (
	FilterNearest Filter = iota
	FilterLinear
	FilterNearestMipNearest
	FilterLinearMipNearest
	FilterNearestMipLinear
	FilterLinearMipLinear // trilinear
)

func (f Filter) mipLinear() bool {
	return f == FilterNearestMipLinear || f == FilterLinearMipLinear
}

func (f Filter) mipmapped() bool { return f >= FilterNearestMipNearest }

func (f Filter) linearInLevel() bool {
	return f == FilterLinear || f == FilterLinearMipNearest || f == FilterLinearMipLinear
}

// MaxMipLevels bounds the mip chain (up to 4096x4096 textures).
const MaxMipLevels = 13

// CubeFaces is the number of cube map faces.
const CubeFaces = 6

// Texture describes a texture object resident in GPU memory: target,
// format, dimensions, sampler state and the memory address of every
// mip level (per face for cube maps). Texel data is stored in 8x8
// tiles (TileTexels); a tile occupies Format.TileBytes of memory and
// fills one texture cache line when decoded.
type Texture struct {
	Target    isa.TexTarget
	Format    Format
	Width     int
	Height    int // 1 for 1D
	Depth     int // 1 unless 3D
	Levels    int // mip levels present (>= 1)
	WrapS     Wrap
	WrapT     Wrap
	WrapR     Wrap
	MinFilter Filter
	MagFilter Filter
	MaxAniso  int // 1 = isotropic

	// Base[face][level] is the GPU memory address of the level's
	// tile array. Non-cube targets use face 0.
	Base [CubeFaces][MaxMipLevels]uint32
}

// Validate checks the descriptor for internal consistency.
func (t *Texture) Validate() error {
	if t.Width < 1 || t.Height < 1 || t.Depth < 1 {
		return fmt.Errorf("texemu: bad dimensions %dx%dx%d", t.Width, t.Height, t.Depth)
	}
	if t.Levels < 1 || t.Levels > MaxMipLevels {
		return fmt.Errorf("texemu: bad level count %d", t.Levels)
	}
	if t.Target == isa.TexCube && t.Width != t.Height {
		return fmt.Errorf("texemu: cube faces must be square")
	}
	if t.MaxAniso < 1 {
		return fmt.Errorf("texemu: MaxAniso must be >= 1")
	}
	if t.Format >= formatCount {
		return fmt.Errorf("texemu: bad format %d", t.Format)
	}
	return nil
}

// Faces returns 6 for cube maps, 1 otherwise.
func (t *Texture) Faces() int {
	if t.Target == isa.TexCube {
		return CubeFaces
	}
	return 1
}

// LevelSize returns the texel dimensions of mip level l.
func (t *Texture) LevelSize(l int) (w, h, d int) {
	w, h, d = t.Width>>l, t.Height>>l, t.Depth>>l
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	if d < 1 {
		d = 1
	}
	return w, h, d
}

// LevelTiles returns the tile grid dimensions of mip level l.
func (t *Texture) LevelTiles(l int) (tx, ty int) {
	w, h, _ := t.LevelSize(l)
	return (w + TileTexels - 1) / TileTexels, (h + TileTexels - 1) / TileTexels
}

// LevelBytes returns the memory footprint of mip level l (all slices
// of a 3D texture).
func (t *Texture) LevelBytes(l int) int {
	tx, ty := t.LevelTiles(l)
	_, _, d := t.LevelSize(l)
	return tx * ty * d * t.Format.TileBytes()
}

// TotalBytes returns the footprint of the whole mip chain across all
// faces.
func (t *Texture) TotalBytes() int {
	total := 0
	for l := 0; l < t.Levels; l++ {
		total += t.LevelBytes(l) * t.Faces()
	}
	return total
}

// TileAddr returns the memory address of the tile containing texel
// (x, y) of the given face, level and 3D slice, plus the texel's
// index within the decoded 64-texel tile.
func (t *Texture) TileAddr(face, level, slice, x, y int) (addr uint32, texelIdx int) {
	lv := t.mipLevel(level, 0, false)
	ux, uy := uint32(x), uint32(y)
	return lv.rowAddr(t.Base[face][level], uint32(slice), uy) + lv.colOff(ux), int(tileIdx(ux, uy))
}

// MemReader provides functional access to texture memory.
type MemReader interface {
	// ReadBytes copies memory starting at addr into dst.
	ReadBytes(addr uint32, dst []byte)
}

// tileReader reads and decodes planned texels directly from memory: the
// functional sampling path (timing code fetches tiles through the
// texture cache instead). It keeps the tile it decoded last, so texels
// of one footprint that share a tile cost one memory read and one
// decode; memory must not change under it. The buffers escape through
// MemReader, so one reader serves a whole quad.
type tileReader struct {
	addr  uint32
	valid bool
	raw   [TileTexels * TileTexels * 4]byte
	tile  [TileTexels * TileTexels]RGBA
}

func (r *tileReader) texel(t *Texture, mem MemReader, ref TexelRef) RGBA {
	if !r.valid || r.addr != ref.Addr {
		raw := r.raw[:t.Format.TileBytes()]
		mem.ReadBytes(ref.Addr, raw)
		DecodeTile(t.Format, raw, &r.tile)
		r.addr, r.valid = ref.Addr, true
	}
	return r.tile[ref.Idx]
}

// mod is the mathematical i mod n for n > 0: a mask when n is a power
// of two, which texture sizes usually are.
func mod(i, n int) int {
	if n&(n-1) == 0 {
		return i & (n - 1)
	}
	if i %= n; i < 0 {
		i += n
	}
	return i
}

func applyWrap(w Wrap, i, n int) int {
	switch w {
	case WrapRepeat:
		i = mod(i, n)
	case WrapClamp:
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
	case WrapMirror:
		if i = mod(i, 2*n); i >= n {
			i = 2*n - 1 - i
		}
	}
	return i
}

// wrapPair is applyWrap of i and i+1, the two columns or rows of a
// bilinear footprint; under WrapRepeat the second follows the first.
func wrapPair(w Wrap, i, n int) (int, int) {
	if w != WrapRepeat {
		return applyWrap(w, i, n), applyWrap(w, i+1, n)
	}
	a := mod(i, n)
	if b := a + 1; b < n {
		return a, b
	}
	return a, 0
}
