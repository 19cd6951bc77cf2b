package texemu

import "encoding/binary"

// decodeDXTBlock expands one 4x4 DXT block into 16 row-major texels.
func decodeDXTBlock(f Format, src []byte, dst *[16]RGBA) {
	colorOff := 0
	if f != FmtDXT1 {
		colorOff = 8
	}
	c0raw := binary.LittleEndian.Uint16(src[colorOff:])
	c1raw := binary.LittleEndian.Uint16(src[colorOff+2:])
	indices := binary.LittleEndian.Uint32(src[colorOff+4:])

	var palette [4]RGBA
	palette[0] = rgb565(c0raw)
	palette[1] = rgb565(c1raw)
	fourColor := f != FmtDXT1 || c0raw > c1raw
	if fourColor {
		palette[2] = mix(palette[0], palette[1], 2, 1)
		palette[3] = mix(palette[0], palette[1], 1, 2)
	} else {
		palette[2] = mix(palette[0], palette[1], 1, 1)
		palette[3] = RGBA{0, 0, 0, 0} // transparent black
	}

	for i := 0; i < 16; i++ {
		dst[i] = palette[(indices>>(2*i))&3]
	}

	switch f {
	case FmtDXT3:
		alpha := binary.LittleEndian.Uint64(src[:8])
		for i := 0; i < 16; i++ {
			a := byte((alpha >> (4 * i)) & 0xF)
			dst[i][3] = a<<4 | a
		}
	case FmtDXT5:
		a0, a1 := src[0], src[1]
		var apal [8]byte
		apal[0], apal[1] = a0, a1
		if a0 > a1 {
			for i := 1; i <= 6; i++ {
				apal[i+1] = byte(((7-i)*int(a0) + i*int(a1)) / 7)
			}
		} else {
			for i := 1; i <= 4; i++ {
				apal[i+1] = byte(((5-i)*int(a0) + i*int(a1)) / 5)
			}
			apal[6], apal[7] = 0, 255
		}
		bits := binary.LittleEndian.Uint64(src[:8]) >> 16
		for i := 0; i < 16; i++ {
			dst[i][3] = apal[(bits>>(3*i))&7]
		}
	}
}

func rgb565(v uint16) RGBA {
	r := byte(v >> 11 & 0x1F)
	g := byte(v >> 5 & 0x3F)
	b := byte(v & 0x1F)
	return RGBA{r<<3 | r>>2, g<<2 | g>>4, b<<3 | b>>2, 255}
}

func toRGB565(c RGBA) uint16 {
	return uint16(c[0]>>3)<<11 | uint16(c[1]>>2)<<5 | uint16(c[2]>>3)
}

func mix(a, b RGBA, wa, wb int) RGBA {
	var r RGBA
	for i := 0; i < 3; i++ {
		r[i] = byte((int(a[i])*wa + int(b[i])*wb) / (wa + wb))
	}
	r[3] = 255
	return r
}

// encodeDXTBlock compresses 16 row-major texels into one DXT block.
// The encoder picks the extreme-luminance texels as endpoints (the
// first of equals) and maps every texel to the nearest palette entry
// (the first of equally near ones) — simple but adequate for synthetic
// workload textures. Each texel's luminance is computed once, and the
// palette is searched in ints.
func encodeDXTBlock(f Format, src *[16]RGBA, dst []byte) {
	lo, hi := 0, 0
	lumLo, lumHi := 1<<30, -1
	for i, c := range src {
		l := 2*int(c[0]) + 5*int(c[1]) + int(c[2])
		if l < lumLo {
			lo, lumLo = i, l
		}
		if l > lumHi {
			hi, lumHi = i, l
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
	// A texel's squared distance to entry p, less the texel's own
	// squared length (the same for every p, so neither the order nor
	// the ties change), is k[p] - 2c·p. The four are unrolled, strict
	// < keeping the first of equals, and compile to conditional moves.
	var pr, pg, pb, k [4]int
	for p, e := range palette {
		pr[p], pg[p], pb[p] = int(e[0]), int(e[1]), int(e[2])
		k[p] = pr[p]*pr[p] + pg[p]*pg[p] + pb[p]*pb[p]
	}

	var indices uint32
	for i, c := range src {
		r, g, b := 2*int(c[0]), 2*int(c[1]), 2*int(c[2])
		best, bestDist := uint32(0), k[0]-r*pr[0]-g*pg[0]-b*pb[0]
		if d := k[1] - r*pr[1] - g*pg[1] - b*pb[1]; d < bestDist {
			best, bestDist = 1, d
		}
		if d := k[2] - r*pr[2] - g*pg[2] - b*pb[2]; d < bestDist {
			best, bestDist = 2, d
		}
		if d := k[3] - r*pr[3] - g*pg[3] - b*pb[3]; d < bestDist {
			best = 3
		}
		indices |= best << (2 * i)
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
