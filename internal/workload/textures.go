package workload

import (
	"attila/internal/emu/texemu"
	"attila/internal/gl"
)

// Procedural texture synthesis: deterministic value noise and pattern
// generators used to build the workload textures (the traces must be
// reproducible, so no global randomness).

// hash32 is a small avalanche hash for lattice noise.
func hash32(x, y, seed int64) uint32 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return uint32(h)
}

// valueNoise returns smooth noise in [0,1) at (x, y) with the given
// lattice cell size.
func valueNoise(x, y float64, cell float64, seed int64) float64 {
	gx, gy := x/cell, y/cell
	x0, y0 := int64(gx), int64(gy)
	fx, fy := gx-float64(x0), gy-float64(y0)
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	v := func(ix, iy int64) float64 {
		return float64(hash32(ix, iy, seed)&0xFFFF) / 65536
	}
	a := v(x0, y0)*(1-sx) + v(x0+1, y0)*sx
	b := v(x0, y0+1)*(1-sx) + v(x0+1, y0+1)*sx
	return a*(1-sy) + b*sy
}

// fbm layers noise octaves. The terrain heights sample it a point at
// a time; the textures take whole rows of it from fbmRows.
func fbm(x, y float64, cell float64, octaves int, seed int64) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	for o := 0; o < octaves; o++ {
		sum += valueNoise(x, y, cell, seed+int64(o)) * amp
		norm += amp
		amp *= 0.5
		cell /= 2
	}
	return sum / norm
}

// fbmRows calls row for y = 0 .. size-1 with fbm(x, y, cell, octaves,
// seed) for x = 0 .. size-1, bit for bit: every float64 is the result
// of the same operations, in the same order, as the per-point fbm.
// What changes is how often they run. Per octave the x lattice columns
// and smoothstep weights are computed once, each lattice point is
// hashed once, and the x-interpolations along the two lattice rows
// bounding y (valueNoise's a and b) are redone only when y crosses into
// another lattice row, the old lower row becoming the new upper one. A
// texel then costs one y-blend per octave. The scratch is four rows per
// octave and one for the sum, all from one allocation; the row passed
// to the callback is reused for the next y.
func fbmRows(size int, cell float64, octaves int, seed int64, row func(y int, t []float64)) {
	scratch := make([]float64, (4*octaves+1)*size)
	take := func() []float64 {
		s := scratch[:size:size]
		scratch = scratch[size:]
		return s
	}
	oct := make([]noiseOctave, octaves)
	amp, norm := 1.0, 0.0
	for o := range oct {
		q := &oct[o]
		q.cell, q.amp, q.seed, q.y0 = cell, amp, seed+int64(o), -2
		q.x0, q.sx, q.a, q.b = take(), take(), take(), take()
		for x := 0; x < size; x++ {
			gx := float64(x) / cell
			x0 := int64(gx)
			fx := gx - float64(x0)
			q.x0[x], q.sx[x] = float64(x0), fx*fx*(3-2*fx)
		}
		norm += amp
		amp *= 0.5
		cell /= 2
	}
	sum := take()
	for y := 0; y < size; y++ {
		clear(sum)
		for o := range oct {
			q := &oct[o]
			gy := float64(y) / q.cell
			y0 := int64(gy)
			fy := gy - float64(y0)
			sy := fy * fy * (3 - 2*fy)
			if y0 != q.y0 {
				if y0 == q.y0+1 {
					q.a, q.b = q.b, q.a
				} else {
					q.lerpRow(q.a, y0)
				}
				q.lerpRow(q.b, y0+1)
				q.y0 = y0
			}
			b := q.b[:len(q.a)]
			for x, a := range q.a {
				sum[x] += (a*(1-sy) + b[x]*sy) * q.amp
			}
		}
		for x := range sum {
			sum[x] /= norm
		}
		row(y, sum)
	}
}

// noiseOctave is one octave of fbmRows: its lattice cell, weight and
// seed, the lattice row its a-row interpolates, and its per-x rows.
type noiseOctave struct {
	cell, amp float64
	seed      int64
	y0        int64     // a's lattice row; -2 before the first, so that row 0 is not taken for its successor
	x0, sx    []float64 // lattice column (an integer) and smoothstep weight
	a, b      []float64 // valueNoise's a and b: lattice rows y0 and y0+1
}

// lerpRow fills dst with valueNoise's x-interpolation along lattice
// row iy. x0 never decreases with x, so each lattice value is hashed
// once and carried to the next column.
func (q *noiseOctave) lerpRow(dst []float64, iy int64) {
	v := func(ix int64) float64 {
		return float64(hash32(ix, iy, q.seed)&0xFFFF) / 65536
	}
	prev, v0, v1 := int64(-2), 0.0, 0.0
	for x, sx := range q.sx {
		switch x0 := int64(q.x0[x]); x0 {
		case prev:
		case prev + 1:
			v0, v1, prev = v1, v(x0+1), x0
		default:
			v0, v1, prev = v(x0), v(x0+1), x0
		}
		dst[x] = v0*(1-sx) + v1*sx
	}
}

func lerpB(a, b byte, t float64) byte {
	return byte(float64(a) + (float64(b)-float64(a))*t)
}

// grassTexture synthesizes a grassy diffuse map.
func grassTexture(size int, seed int64) *gl.Image {
	img := gl.NewImage(size, size)
	dark := texemu.RGBA{36, 84, 28, 255}
	light := texemu.RGBA{96, 160, 64, 255}
	fbmRows(size, float64(size)/8, 4, seed, func(y int, row []float64) {
		px := img.Pix[y*size : (y+1)*size]
		for x, t := range row {
			px[x] = texemu.RGBA{
				lerpB(dark[0], light[0], t),
				lerpB(dark[1], light[1], t),
				lerpB(dark[2], light[2], t),
				255,
			}
		}
	})
	return img
}

// rockTexture synthesizes a rocky/wall diffuse map.
func rockTexture(size int, seed int64) *gl.Image {
	img := gl.NewImage(size, size)
	fbmRows(size, float64(size)/4, 5, seed, func(y int, row []float64) {
		px := img.Pix[y*size : (y+1)*size]
		for x, t := range row {
			v := byte(60 + t*140)
			px[x] = texemu.RGBA{v, v, byte(float64(v) * 0.9), 255}
		}
	})
	return img
}

// lightmapTexture synthesizes a smooth static-lighting map.
func lightmapTexture(size int, seed int64) *gl.Image {
	img := gl.NewImage(size, size)
	fbmRows(size, float64(size)/2, 2, seed, func(y int, row []float64) {
		px := img.Pix[y*size : (y+1)*size]
		for x, t := range row {
			v := byte(90 + t*165)
			px[x] = texemu.RGBA{v, v, v, 255}
		}
	})
	return img
}

// foliageTexture synthesizes an alpha-cutout leaf pattern (alpha 0
// outside the fronds, 255 inside) for the alpha-test path. The
// outside is NewImage's zero texels: transparent black.
func foliageTexture(size int, seed int64) *gl.Image {
	img := gl.NewImage(size, size)
	c := float64(size) / 2
	fbmRows(size, float64(size)/6, 3, seed, func(y int, row []float64) {
		px := img.Pix[y*size : (y+1)*size]
		for x, n := range row {
			dx, dy := float64(x)-c, float64(y)-c
			r := dx*dx + dy*dy
			if r < (c*c)*(0.3+0.6*n) {
				px[x] = texemu.RGBA{byte(30 + n*60), byte(100 + n*100), 40, 255}
			}
		}
	})
	return img
}

// checkerTexture is the classic debug pattern.
func checkerTexture(size, square int, a, b texemu.RGBA) *gl.Image {
	img := gl.NewImage(size, size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			if (x/square+y/square)%2 == 0 {
				img.Set(x, y, a)
			} else {
				img.Set(x, y, b)
			}
		}
	}
	return img
}
