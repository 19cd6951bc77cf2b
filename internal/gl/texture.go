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

// TexImage2D creates a 2D texture object from an image, generating
// mipmaps when requested, encoding texel tiles in the given format
// (compressed formats are compressed here, in the "driver"), and
// uploading every level with buffer write commands. It returns the
// texture id.
func (c *Context) TexImage2D(img *Image, format texemu.Format, params TexParams) uint32 {
	levels := 1
	if params.Mipmap {
		w, h := img.W, img.H
		for w > 1 || h > 1 {
			levels++
			w /= 2
			h /= 2
			if w < 1 {
				w = 1
			}
			if h < 1 {
				h = 1
			}
		}
	}
	tex := &texemu.Texture{
		Target: isa.Tex2D, Format: format,
		Width: img.W, Height: img.H, Depth: 1, Levels: levels,
		WrapS: params.WrapS, WrapT: params.WrapT,
		MinFilter: params.MinFilter, MagFilter: params.MagFilter,
		MaxAniso: params.MaxAniso,
	}
	if tex.MaxAniso < 1 {
		tex.MaxAniso = 1
	}
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
	level := img
	var scratch mipScratch
	for l := 0; l < levels; l++ {
		tex.Base[0][l] = addr
		data := encodeLevel(tex, l, level)
		c.cmds = append(c.cmds, gpu.CmdBufferWrite{Addr: addr, Data: data})
		addr += uint32(tex.LevelBytes(l))
		if l+1 < levels {
			level = scratch.next(l, level)
		}
	}
	c.nextID++
	c.textures[c.nextID] = tex
	return c.nextID
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
	for face := 0; face < texemu.CubeFaces; face++ {
		level := faces[face]
		for l := 0; l < levels; l++ {
			tex.Base[face][l] = addr
			data := encodeLevel(tex, l, level)
			c.cmds = append(c.cmds, gpu.CmdBufferWrite{Addr: addr, Data: data})
			addr += uint32(tex.LevelBytes(l))
			if l+1 < levels {
				level = scratch.next(l, level)
			}
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
