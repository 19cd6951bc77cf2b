package gl

import (
	"strings"

	"attila/internal/emu/fragemu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// The legacy fixed-function vertex and fragment pipelines are
// emulated with driver-generated shader programs (paper §4, partly
// after Igesund & Stavang [27]); alpha test and per-fragment fog were
// removed from the hardware pipeline and are injected here as
// fragment program sequences (§2.2).
//
// Generated vertex program constants:
//
//	c0..c3   modelview-projection rows
//	c4       light direction (eye space, toward the light)
//	c5       (0, 0, 0, 0)
//	c6       light color
//	c7       ambient color
//	c8..c11  modelview rows (normal transform, fog eye depth)
//
// Generated fragment program constants:
//
//	c0       (alphaRef, 1, 0, 0)
//	c1       (fogScale, fogBias, 0, 0)
//	c2       fog color
type ffKey struct {
	lighting bool
	tex0     bool
	tex1     bool
	fog      bool
	alpha    fragemu.CompareFunc
}

type ffPrograms struct {
	vp *isa.Program
	fp *isa.Program
}

func (c *Context) ffKey() ffKey {
	k := ffKey{
		lighting: c.caps[CapLighting],
		tex0:     c.caps[CapTexture0],
		tex1:     c.caps[CapTexture1],
		fog:      c.caps[CapFog],
		alpha:    fragemu.CmpAlways,
	}
	if c.caps[CapAlphaTest] {
		k.alpha = c.alphaFunc
	}
	return k
}

// fixedFunction returns (building and caching) the generated programs
// for the current fixed-function state.
func (c *Context) fixedFunction() *ffPrograms {
	key := c.ffKey()
	if p, ok := c.ffCache[key]; ok {
		return p
	}
	p := &ffPrograms{
		vp: buildFFVertex(key),
		fp: buildFFFragment(key, c),
	}
	c.ffCache[key] = p
	return p
}

// ffSourceBytes holds the longest generated program's source.
const ffSourceBytes = 512

func buildFFVertex(k ffKey) *isa.Program {
	var b strings.Builder
	b.Grow(ffSourceBytes)
	b.WriteString("!!ATTILAvp\n")
	// Position transform.
	b.WriteString("DP4 o0.x, v0, c0\n")
	b.WriteString("DP4 o0.y, v0, c1\n")
	b.WriteString("DP4 o0.z, v0, c2\n")
	b.WriteString("DP4 o0.w, v0, c3\n")
	if k.lighting {
		// Eye-space normal, single directional diffuse light.
		b.WriteString("DP3 r0.x, v2, c8\n")
		b.WriteString("DP3 r0.y, v2, c9\n")
		b.WriteString("DP3 r0.z, v2, c10\n")
		b.WriteString("DP3 r1.x, r0, c4\n")
		b.WriteString("MAX r1.x, r1.x, c5.x\n")
		b.WriteString("MUL r2, r1.x, c6\n")
		b.WriteString("ADD r2, r2, c7\n")
		b.WriteString("MUL_SAT o1.xyz, v1, r2\n")
		b.WriteString("MOV o1.w, v1\n")
	} else {
		b.WriteString("MOV o1, v1\n")
	}
	if k.tex0 {
		b.WriteString("MOV o4, v4\n")
	}
	if k.tex1 {
		b.WriteString("MOV o5, v5\n")
	}
	if k.fog {
		// Fog coordinate: eye-space distance (-z_eye).
		b.WriteString("DP4 r3.x, v0, c10\n")
		b.WriteString("MOV o3.x, -r3.x\n")
	}
	b.WriteString("END\n")
	return isa.MustAssemble(isa.VertexProgram, "ff-vertex", b.String())
}

func buildFFFragment(k ffKey, c *Context) *isa.Program {
	var b strings.Builder
	b.Grow(ffSourceBytes)
	b.WriteString("!!ATTILAfp\n")
	b.WriteString("MOV r0, v1\n")
	if k.tex0 {
		b.WriteString("TEX r1, v4, t0, 2D\n")
		b.WriteString("MUL r0, r0, r1\n")
	}
	if k.tex1 {
		// Second unit modulates (lightmap-style multitexture).
		b.WriteString("TEX r2, v5, t1, 2D\n")
		b.WriteString("MUL r0, r0, r2\n")
	}
	switch k.alpha {
	case fragemu.CmpAlways:
	case fragemu.CmpNever:
		b.WriteString("KIL -c0.y\n")
	case fragemu.CmpGEqual, fragemu.CmpGreater:
		// Kill when alpha < ref (boundary approximated as pass).
		b.WriteString("SUB r3.x, r0.w, c0.x\n")
		b.WriteString("KIL r3.x\n")
	case fragemu.CmpLEqual, fragemu.CmpLess:
		b.WriteString("SUB r3.x, c0.x, r0.w\n")
		b.WriteString("KIL r3.x\n")
	default:
		c.fail("alpha test func %d not expressible as a fragment program", k.alpha)
	}
	if k.fog {
		b.WriteString("MAD_SAT r4.x, v3.x, c1.x, c1.y\n")
		b.WriteString("LRP r0.xyz, r4.x, r0, c2\n")
	}
	b.WriteString("MOV o0, r0\n")
	b.WriteString("END\n")
	return isa.MustAssemble(isa.FragmentProgram, "ff-fragment", b.String())
}

func (c *Context) ffVertConsts() []vmath.Vec4 {
	mvp := c.projection.Mul(c.modelview)
	consts := make([]vmath.Vec4, 12)
	for i := 0; i < 4; i++ {
		consts[i] = mvp.Row(i)
		consts[8+i] = c.modelview.Row(i)
	}
	consts[4] = c.lightDir
	consts[5] = vmath.Vec4{}
	consts[6] = c.lightColor
	consts[7] = c.ambient
	return consts
}

func (c *Context) ffFragConsts() []vmath.Vec4 {
	consts := make([]vmath.Vec4, 3)
	consts[0] = vmath.Vec4{c.alphaRef, 1, 0, 0}
	denom := c.fogEnd - c.fogStart
	if denom == 0 {
		denom = 1
	}
	// f = clamp((end - d) / (end - start)) = d*scale + bias.
	consts[1] = vmath.Vec4{-1 / denom, c.fogEnd / denom, 0, 0}
	consts[2] = c.fogColor
	return consts
}
