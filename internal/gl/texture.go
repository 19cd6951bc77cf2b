package gl

import (
	"attila/internal/emu/texemu"
	"attila/internal/gpu"
	"attila/internal/isa"
)

// Image is a simple RGBA texel array for texture uploads.
type Image struct {
	W, H int
	Pix  []texemu.RGBA // row major
}

// NewImage allocates a w x h image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]texemu.RGBA, w*h)}
}

// At returns the texel at (x, y), clamped to the image.
func (im *Image) At(x, y int) texemu.RGBA {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set stores a texel.
func (im *Image) Set(x, y int, c texemu.RGBA) {
	im.Pix[y*im.W+x] = c
}

// halveInto box-filters the image down one mip level into dst,
// reusing dst's pixels when they are large enough. Each output texel
// averages a 2x2 block; an image one texel wide (or high) repeats its
// one column (row), as a clamped read would.
func (im *Image) halveInto(dst *Image) {
	w, h := max(im.W/2, 1), max(im.H/2, 1)
	if cap(dst.Pix) < w*h {
		dst.Pix = make([]texemu.RGBA, w*h)
	}
	dst.W, dst.H, dst.Pix = w, h, dst.Pix[:w*h]
	dx, dy := min(im.W-1, 1), min(im.H-1, 1)
	for y := 0; y < h; y++ {
		r0 := im.Pix[2*y*im.W : (2*y+1)*im.W]
		r1 := im.Pix[(2*y+dy)*im.W : (2*y+dy+1)*im.W]
		out := dst.Pix[y*w : (y+1)*w]
		for x := range out {
			a, b, c, d := &r0[2*x], &r0[2*x+dx], &r1[2*x], &r1[2*x+dx]
			for ch := range out[x] {
				out[x][ch] = byte((int(a[ch]) + int(b[ch]) + int(c[ch]) + int(d[ch])) / 4)
			}
		}
	}
}

// mipScratch is the pair of images one texture's mip chain is halved
// through: level l+1 lands in the image level l does not occupy, so a
// chain of any length (and every face of a cube) costs two images.
// encodeLevel copies each level out before the next overwrites it.
type mipScratch [2]Image

// next halves level, the chain's level l, into the image level l does
// not occupy and returns it.
func (s *mipScratch) next(l int, level *Image) *Image {
	dst := &s[l%2]
	level.halveInto(dst)
	return dst
}

// TexParams configures sampler state at creation.
type TexParams struct {
	MinFilter texemu.Filter
	MagFilter texemu.Filter
	WrapS     texemu.Wrap
	WrapT     texemu.Wrap
	MaxAniso  int
	Mipmap    bool // generate the full mip chain
}

// DefaultTexParams returns trilinear repeat sampling.
func DefaultTexParams() TexParams {
	return TexParams{
		MinFilter: texemu.FilterLinearMipLinear,
		MagFilter: texemu.FilterLinear,
		WrapS:     texemu.WrapRepeat,
		WrapT:     texemu.WrapRepeat,
		MaxAniso:  1,
		Mipmap:    true,
	}
}

// Levels is a 2D texture's mip chain as memory holds it: each level
// tiled and, for a compressed format, compressed — what TexImage2D
// uploads. EncodeLevels makes it and nothing writes it afterwards
// (uploading copies it into GPU memory), so one Levels may be uploaded
// by any number of contexts, concurrently too.
type Levels struct {
	Format        texemu.Format
	Width, Height int
	Data          [][]byte // one per mip level, base first
}

// Bytes returns the encoded size of every level.
func (lv *Levels) Bytes() int {
	n := 0
	for _, d := range lv.Data {
		n += len(d)
	}
	return n
}

// descriptor returns the texture lv describes, its addresses unset.
func (lv *Levels) descriptor() *texemu.Texture {
	return &texemu.Texture{
		Target: isa.Tex2D, Format: lv.Format,
		Width: lv.Width, Height: lv.Height, Depth: 1, Levels: len(lv.Data),
		MaxAniso: 1,
	}
}

// EncodeLevels builds an image's mip chain, the full chain when mipmap
// is set and the base level alone otherwise, and encodes each level's
// tiles in the given format (compressed formats are compressed here, in
// the "driver"). An image that makes no valid texture (no texels, a bad
// format) encodes nothing: its levels are empty, and TexImageLevels
// refuses them with the reason.
func EncodeLevels(img *Image, format texemu.Format, mipmap bool) *Levels {
	levels := 1
	if mipmap {
		for w, h := img.W, img.H; w > 1 || h > 1; w, h = max(w/2, 1), max(h/2, 1) {
			levels++
		}
	}
	lv := &Levels{Format: format, Width: img.W, Height: img.H, Data: make([][]byte, levels)}
	if tex := lv.descriptor(); tex.Validate() == nil {
		var scratch mipScratch
		encodeChain(lv.Data, tex, img, &scratch)
	}
	return lv
}

// encodeChain encodes img as level 0 of tex and the levels halved from
// it as the next ones, one per element of dst.
func encodeChain(dst [][]byte, tex *texemu.Texture, img *Image, scratch *mipScratch) {
	for l := range dst {
		if l > 0 {
			img = scratch.next(l-1, img)
		}
		dst[l] = encodeLevel(tex, l, img)
	}
}

// TexImageLevels creates a 2D texture object from an encoded mip chain
// with the given sampler state: it reserves the chain's memory and
// uploads every level with a buffer write command. It returns the
// texture id. The commands carry lv's bytes, not a copy.
func (c *Context) TexImageLevels(lv *Levels, params TexParams) uint32 {
	tex := lv.descriptor()
	tex.WrapS, tex.WrapT = params.WrapS, params.WrapT
	tex.MinFilter, tex.MagFilter = params.MinFilter, params.MagFilter
	tex.MaxAniso = max(params.MaxAniso, 1)
	if err := tex.Validate(); err != nil {
		c.fail("TexImage2D: %v", err)
		return 0
	}
	base, err := c.alloc.Alloc(tex.TotalBytes(), 256)
	if err != nil {
		c.fail("TexImage2D: %v", err)
		return 0
	}
	addr := base
	for l, data := range lv.Data {
		tex.Base[0][l] = addr
		c.cmds = append(c.cmds, gpu.CmdBufferWrite{Addr: addr, Data: data})
		addr += uint32(tex.LevelBytes(l))
	}
	c.nextID++
	c.textures[c.nextID] = tex
	return c.nextID
}

// TexImage2D creates a 2D texture object from an image: EncodeLevels,
// with params.Mipmap choosing the chain, then TexImageLevels.
func (c *Context) TexImage2D(img *Image, format texemu.Format, params TexParams) uint32 {
	return c.TexImageLevels(EncodeLevels(img, format, params.Mipmap), params)
}

// Texture returns the descriptor for a texture id (diagnostics and
// the reference renderer's tests).
func (c *Context) Texture(id uint32) *texemu.Texture { return c.textures[id] }

// TexImageCube creates a cube map from six face images (+X, -X, +Y,
// -Y, +Z, -Z, the OpenGL face order), all square and equally sized.
func (c *Context) TexImageCube(faces *[6]*Image, format texemu.Format, params TexParams) uint32 {
	size := faces[0].W
	for _, f := range faces {
		if f.W != size || f.H != size {
			c.fail("TexImageCube: faces must be square and equal")
			return 0
		}
	}
	levels := 1
	if params.Mipmap {
		for w := size; w > 1; w /= 2 {
			levels++
		}
	}
	tex := &texemu.Texture{
		Target: isa.TexCube, Format: format,
		Width: size, Height: size, Depth: 1, Levels: levels,
		WrapS: texemu.WrapClamp, WrapT: texemu.WrapClamp,
		MinFilter: params.MinFilter, MagFilter: params.MagFilter,
		MaxAniso: 1,
	}
	if err := tex.Validate(); err != nil {
		c.fail("TexImageCube: %v", err)
		return 0
	}
	base, err := c.alloc.Alloc(tex.TotalBytes(), 256)
	if err != nil {
		c.fail("TexImageCube: %v", err)
		return 0
	}
	addr := base
	var scratch mipScratch
	chain := make([][]byte, levels)
	for face := 0; face < texemu.CubeFaces; face++ {
		encodeChain(chain, tex, faces[face], &scratch)
		for l, data := range chain {
			tex.Base[face][l] = addr
			c.cmds = append(c.cmds, gpu.CmdBufferWrite{Addr: addr, Data: data})
			addr += uint32(tex.LevelBytes(l))
		}
	}
	c.nextID++
	c.textures[c.nextID] = tex
	return c.nextID
}

// encodeLevel packs one mip level into tiled (and possibly
// compressed) memory bytes. A tile inside the level is gathered a row
// at a time; one that overhangs it (a level smaller than a tile, or
// one whose size is not a multiple of it) repeats the edge texels.
func encodeLevel(tex *texemu.Texture, l int, img *Image) []byte {
	const n = texemu.TileTexels
	tilesX, tilesY := tex.LevelTiles(l)
	tileBytes := tex.Format.TileBytes()
	out := make([]byte, tilesX*tilesY*tileBytes)
	var tile [n * n]texemu.RGBA
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			x0, y0 := tx*n, ty*n
			if x0+n <= img.W && y0+n <= img.H {
				for y := 0; y < n; y++ {
					copy(tile[y*n:(y+1)*n], img.Pix[(y0+y)*img.W+x0:])
				}
			} else {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						tile[y*n+x] = img.At(x0+x, y0+y)
					}
				}
			}
			idx := (ty*tilesX + tx) * tileBytes
			texemu.EncodeTile(tex.Format, &tile, out[idx:])
		}
	}
	return out
}
