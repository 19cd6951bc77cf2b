package texemu

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// encodeDXTBlockModel is the DXT encoder encodeDXTBlock replaced,
// kept as its model: a luminance closure re-evaluated at every
// comparison and a per-channel palette search.
func encodeDXTBlockModel(f Format, src *[16]RGBA, dst []byte) {
	lum := func(c RGBA) int { return 2*int(c[0]) + 5*int(c[1]) + int(c[2]) }
	lo, hi := 0, 0
	for i := 1; i < 16; i++ {
		if lum(src[i]) < lum(src[lo]) {
			lo = i
		}
		if lum(src[i]) > lum(src[hi]) {
			hi = i
		}
	}
	c0, c1 := toRGB565(src[hi]), toRGB565(src[lo])
	// Force the four-color mode (c0 > c1); swap if needed. DXT3/5
	// always use four colors regardless, but keeping the order
	// consistent simplifies the palette construction below.
	if c0 < c1 {
		c0, c1 = c1, c0
	}
	if c0 == c1 && c0 > 0 {
		c1 = c0 - 1
	} else if c0 == c1 {
		c0 = 1
	}
	var palette [4]RGBA
	palette[0] = rgb565(c0)
	palette[1] = rgb565(c1)
	palette[2] = mix(palette[0], palette[1], 2, 1)
	palette[3] = mix(palette[0], palette[1], 1, 2)

	var indices uint32
	for i := 0; i < 16; i++ {
		best, bestDist := 0, 1<<30
		for p := 0; p < 4; p++ {
			d := 0
			for ch := 0; ch < 3; ch++ {
				dd := int(src[i][ch]) - int(palette[p][ch])
				d += dd * dd
			}
			if d < bestDist {
				best, bestDist = p, d
			}
		}
		indices |= uint32(best) << (2 * i)
	}

	colorOff := 0
	if f != FmtDXT1 {
		colorOff = 8
	}
	binary.LittleEndian.PutUint16(dst[colorOff:], c0)
	binary.LittleEndian.PutUint16(dst[colorOff+2:], c1)
	binary.LittleEndian.PutUint32(dst[colorOff+4:], indices)

	switch f {
	case FmtDXT3:
		var alpha uint64
		for i := 0; i < 16; i++ {
			alpha |= uint64(src[i][3]>>4) << (4 * i)
		}
		binary.LittleEndian.PutUint64(dst[:8], alpha)
	case FmtDXT5:
		a0, a1 := byte(0), byte(255)
		for i := 0; i < 16; i++ {
			a := src[i][3]
			if a > a0 {
				a0 = a
			}
			if a < a1 {
				a1 = a
			}
		}
		if a0 == a1 {
			if a0 > 0 {
				a1 = a0 - 1
			} else {
				a0 = 1
			}
		}
		var apal [8]byte
		apal[0], apal[1] = a0, a1
		for i := 1; i <= 6; i++ {
			apal[i+1] = byte(((7-i)*int(a0) + i*int(a1)) / 7)
		}
		var bits uint64
		for i := 0; i < 16; i++ {
			best, bestDist := 0, 1<<30
			for p := 0; p < 8; p++ {
				d := int(src[i][3]) - int(apal[p])
				if d < 0 {
					d = -d
				}
				if d < bestDist {
					best, bestDist = p, d
				}
			}
			bits |= uint64(best) << (3 * i)
		}
		var packed [8]byte
		binary.LittleEndian.PutUint64(packed[:], bits<<16)
		packed[0], packed[1] = a0, a1
		copy(dst[:8], packed[:])
	}
}

// FuzzEncodeDXTMatchesModel wants encodeDXTBlock's bytes equal to the
// model's for every block in DXT1, DXT3 and DXT5: 64 input bytes are
// the 16 texels, shorter inputs repeat.
func FuzzEncodeDXTMatchesModel(f *testing.F) {
	flat := bytes.Repeat([]byte{90, 140, 60, 255}, 16)
	f.Add(flat)
	f.Add(make([]byte, 64))                 // all zero: c0 == c1 == 0, alpha 0
	f.Add(bytes.Repeat([]byte{255}, 64))    // all white, alpha 255
	f.Add([]byte{8, 4, 8, 0, 15, 7, 15, 0}) // two colors rounding to one RGB565: c0 == c1
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{30, 100, 40, 255, 0, 0, 0, 0, 60, 200, 40, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var src [16]RGBA
		for i := range src {
			for ch := range src[i] {
				src[i][ch] = data[(i*4+ch)%len(data)]
			}
		}
		for _, format := range []Format{FmtDXT1, FmtDXT3, FmtDXT5} {
			var got, want [16]byte
			encodeDXTBlock(format, &src, got[:])
			encodeDXTBlockModel(format, &src, want[:])
			if got != want {
				t.Fatalf("format %v, texels %v:\n got %x\nwant %x", format, src, got, want)
			}
		}
	})
}
