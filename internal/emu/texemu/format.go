// Package texemu implements the TextureEmulator (paper §3): memory
// address calculation for tiled textures, mipmap level-of-detail
// selection from quad derivatives, anisotropic sample planning,
// bilinear/trilinear filtering, texel format conversion into the
// internal 4-float format and block decompression for compressed
// textures (paper [24]).
//
// The emulator contains no timing: the TextureUnit box in
// internal/gpu uses it to compute which cache lines a sample needs
// and to filter the fetched texels, and the functional reference
// renderer uses it to sample directly from memory.
package texemu

import (
	"fmt"

	"attila/internal/vmath"
)

// Format identifies a texel storage format.
type Format uint8

// Texture formats. Compressed formats follow the S3TC/DXT block
// layout: 4x4-texel blocks, 8 bytes (DXT1) or 16 bytes (DXT3/DXT5).
const (
	FmtRGBA8 Format = iota // 4 bytes/texel, RGBA order
	FmtL8                  // 1 byte/texel, luminance replicated to RGB, A=1
	FmtDXT1                // 8 bytes per 4x4 block
	FmtDXT3                // 16 bytes per 4x4 block (explicit alpha)
	FmtDXT5                // 16 bytes per 4x4 block (interpolated alpha)
	formatCount
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FmtRGBA8:
		return "RGBA8"
	case FmtL8:
		return "L8"
	case FmtDXT1:
		return "DXT1"
	case FmtDXT3:
		return "DXT3"
	case FmtDXT5:
		return "DXT5"
	}
	return fmt.Sprintf("FMT(%d)", uint8(f))
}

// Compressed reports whether the format is block compressed.
func (f Format) Compressed() bool { return f >= FmtDXT1 }

// TileTexels is the edge of the square texel tile that maps onto one
// texture cache line (8x8 texels; for RGBA8 that is exactly the
// 256-byte line of Table 2).
const TileTexels = 8

// TileBytes returns the bytes of GPU memory occupied by one 8x8 texel
// tile in this format — the amount fetched on a texture cache miss.
// Compression reduces it (DXT1: 32 bytes instead of 256), which is
// the bandwidth saving the paper describes; lines are decompressed
// into the cache.
func (f Format) TileBytes() int {
	switch f {
	case FmtRGBA8:
		return TileTexels * TileTexels * 4
	case FmtL8:
		return TileTexels * TileTexels
	case FmtDXT1:
		return 4 * 8 // four 4x4 blocks, 8 bytes each
	case FmtDXT3, FmtDXT5:
		return 4 * 16
	}
	panic("texemu: bad format")
}

// RGBA is one texel in 8-bit-per-channel form, the representation
// stored in the texture cache after decompression.
type RGBA [4]byte

// unorm8 holds float32(b) / 255 for every byte b: the table computes
// each entry by that division, so reading it is bit-identical to
// dividing.
var unorm8 = func() (tab [256]float32) {
	for b := range tab {
		tab[b] = float32(b) / 255
	}
	return tab
}()

// Unorm8 converts one 8-bit channel to the shader's float format:
// float32(b) / 255, looked up.
func Unorm8(b byte) float32 { return unorm8[b] }

// Vec converts the texel to the shader's float format.
func (c RGBA) Vec() vmath.Vec4 {
	return vmath.Vec4{unorm8[c[0]], unorm8[c[1]], unorm8[c[2]], unorm8[c[3]]}
}

// DecodeTile expands one tile's raw memory bytes (TileBytes long)
// into 64 RGBA texels in row-major order within the tile. It is the
// operation the texture cache performs on a line fill.
func DecodeTile(f Format, src []byte, dst *[TileTexels * TileTexels]RGBA) {
	if len(src) < f.TileBytes() {
		panic(fmt.Sprintf("texemu: tile decode needs %d bytes, got %d", f.TileBytes(), len(src)))
	}
	switch f {
	case FmtRGBA8:
		for i := 0; i < 64; i++ {
			copy(dst[i][:], src[i*4:])
		}
	case FmtL8:
		for i := 0; i < 64; i++ {
			l := src[i]
			dst[i] = RGBA{l, l, l, 255}
		}
	case FmtDXT1, FmtDXT3, FmtDXT5:
		// A tile is 2x2 DXT blocks: block (bx,by) covers texels
		// [bx*4, bx*4+3] x [by*4, by*4+3] of the tile.
		bsz := 8
		if f != FmtDXT1 {
			bsz = 16
		}
		var block [16]RGBA
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				decodeDXTBlock(f, src[(by*2+bx)*bsz:], &block)
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						dst[(by*4+y)*TileTexels+bx*4+x] = block[y*4+x]
					}
				}
			}
		}
	default:
		panic("texemu: bad format")
	}
}

// EncodeTile packs 64 row-major texels into raw tile memory; the
// inverse of DecodeTile (lossy for compressed formats). Used by the
// GL layer when uploading textures.
func EncodeTile(f Format, src *[TileTexels * TileTexels]RGBA, dst []byte) {
	if len(dst) < f.TileBytes() {
		panic("texemu: tile encode buffer too small")
	}
	switch f {
	case FmtRGBA8:
		for i := 0; i < 64; i++ {
			copy(dst[i*4:], src[i][:])
		}
	case FmtL8:
		for i := 0; i < 64; i++ {
			dst[i] = src[i][0]
		}
	case FmtDXT1, FmtDXT3, FmtDXT5:
		bsz := 8
		if f != FmtDXT1 {
			bsz = 16
		}
		var block [16]RGBA
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						block[y*4+x] = src[(by*4+y)*TileTexels+bx*4+x]
					}
				}
				encodeDXTBlock(f, &block, dst[(by*2+bx)*bsz:])
			}
		}
	default:
		panic("texemu: bad format")
	}
}
