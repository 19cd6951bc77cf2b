package shaderemu_test

import (
	"fmt"
	"math"

	"attila/internal/emu/shaderemu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// The reference evaluator: the per-lane interpreter this package
// shipped before programs were decoded once (commit a9fa157), kept
// verbatim as the oracle the decoded quad-at-a-time Step is compared
// against. It works from isa.Instruction, never from isa.Decoded, so a
// wrong decode cannot hide in it; the timing simulator and refrender
// both run Step, so neither can serve as the other's oracle for it.
// It lives in the external test package with its own copies of the
// arithmetic helpers, sharing only the Thread and TexRequest types with
// the code under test.
type refEmulator struct {
	prog   *isa.Program
	consts []vmath.Vec4
}

func newRef(prog *isa.Program, consts []vmath.Vec4) *refEmulator {
	c := make([]vmath.Vec4, isa.MaxConsts)
	copy(c, consts)
	return &refEmulator{prog: prog, consts: c}
}

// Step executes the instruction at t.PC and advances. It returns the
// instruction executed for timing purposes. If the instruction is a
// texture operation the thread blocks (t.Blocked is set) and the
// caller must eventually call CompleteTexture; Step must not be
// called again until then. Calling Step on a finished or blocked
// thread panics: that is a timing-simulator bug.
func (e *refEmulator) Step(t *shaderemu.Thread) isa.Instruction {
	if t.Done {
		panic("shaderemu: Step on finished thread")
	}
	if t.Blocked != nil {
		panic("shaderemu: Step on thread blocked on texture")
	}
	in := e.prog.Instr[t.PC]
	t.PC++
	info := in.Op.Info()
	switch {
	case in.Op == isa.END:
		t.Done = true
	case in.Op == isa.NOP:
	case in.Op == isa.KIL:
		for l := 0; l < shaderemu.Lanes; l++ {
			if !t.Active[l] || t.Killed[l] {
				continue
			}
			v := e.readSrc(t, l, in.Src[0])
			if v[0] < 0 || v[1] < 0 || v[2] < 0 || v[3] < 0 {
				t.Killed[l] = true
			}
		}
	case info.Texture:
		req := new(shaderemu.TexRequest) // the thread-owned storage is private to the package
		*req = shaderemu.TexRequest{
			Sampler:  in.Sampler,
			Target:   in.Target,
			Dst:      in.Dst,
			Saturate: in.Saturate,
		}
		switch in.Op {
		case isa.TXB:
			req.Mode = shaderemu.TexModeBias
		case isa.TXP:
			req.Mode = shaderemu.TexModeProj
		case isa.TXL:
			req.Mode = shaderemu.TexModeLod
		}
		for l := 0; l < shaderemu.Lanes; l++ {
			// Coordinates are computed for every lane, even ones
			// that are inactive or killed, because the quad's
			// texture derivatives need all four corners.
			req.Coord[l] = e.readSrc(t, l, in.Src[0])
			req.Active[l] = t.Active[l] && !t.Killed[l]
		}
		t.Blocked = req
	default:
		for l := 0; l < shaderemu.Lanes; l++ {
			if !t.Active[l] {
				continue
			}
			e.execALU(t, l, in)
		}
	}
	return in
}

// CompleteTexture writes the sampled results for the thread's pending
// texture request and unblocks it.
func (e *refEmulator) CompleteTexture(t *shaderemu.Thread, results [shaderemu.Lanes]vmath.Vec4) {
	req := t.Blocked
	if req == nil {
		panic("shaderemu: CompleteTexture without pending request")
	}
	t.Blocked = nil
	for l := 0; l < shaderemu.Lanes; l++ {
		if !t.Active[l] {
			continue
		}
		e.writeDst(t, l, req.Dst, req.Saturate, results[l])
	}
}

func (e *refEmulator) readSrc(t *shaderemu.Thread, lane int, s isa.SrcOperand) vmath.Vec4 {
	var raw vmath.Vec4
	switch s.Bank {
	case isa.BankInput:
		raw = t.In[lane][s.Index]
	case isa.BankTemp:
		raw = t.Temp[lane][s.Index]
	case isa.BankConst:
		raw = e.consts[s.Index]
	}
	var v vmath.Vec4
	for i := 0; i < 4; i++ {
		v[i] = raw[s.Swizzle.Comp(i)]
	}
	if s.Negate {
		for i := range v {
			v[i] = -v[i]
		}
	}
	return v
}

func (e *refEmulator) writeDst(t *shaderemu.Thread, lane int, d isa.DstOperand, sat bool, v vmath.Vec4) {
	if sat {
		v = v.Clamp01()
	}
	var reg *vmath.Vec4
	switch d.Bank {
	case isa.BankTemp:
		reg = &t.Temp[lane][d.Index]
	case isa.BankOutput:
		reg = &t.Out[lane][d.Index]
	default:
		panic("shaderemu: bad destination bank")
	}
	for i := 0; i < 4; i++ {
		if d.Mask.Has(i) {
			reg[i] = v[i]
		}
	}
}

func (e *refEmulator) execALU(t *shaderemu.Thread, lane int, in isa.Instruction) {
	info := in.Op.Info()
	var s [3]vmath.Vec4
	for i := 0; i < info.NSrc; i++ {
		s[i] = e.readSrc(t, lane, in.Src[i])
	}
	var r vmath.Vec4
	switch in.Op {
	case isa.MOV:
		r = s[0]
	case isa.ADD:
		r = s[0].Add(s[1])
	case isa.SUB:
		r = s[0].Sub(s[1])
	case isa.MUL:
		r = s[0].Mul(s[1])
	case isa.MAD:
		r = s[0].Mul(s[1]).Add(s[2])
	case isa.DP3:
		r = splat(s[0].Dot3(s[1]))
	case isa.DP4:
		r = splat(s[0].Dot4(s[1]))
	case isa.DPH:
		r = splat(s[0].Dot3(s[1]) + s[1][3])
	case isa.DST:
		r = vmath.Vec4{1, s[0][1] * s[1][1], s[0][2], s[1][3]}
	case isa.MIN:
		r = vecMin(s[0], s[1])
	case isa.MAX:
		r = vecMax(s[0], s[1])
	case isa.SLT:
		r = vecCmp(s[0], s[1], func(a, b float32) bool { return a < b })
	case isa.SGE:
		r = vecCmp(s[0], s[1], func(a, b float32) bool { return a >= b })
	case isa.FRC:
		for i := 0; i < 4; i++ {
			r[i] = s[0][i] - floorf(s[0][i])
		}
	case isa.FLR:
		for i := 0; i < 4; i++ {
			r[i] = floorf(s[0][i])
		}
	case isa.ABS:
		for i := 0; i < 4; i++ {
			r[i] = float32(math.Abs(float64(s[0][i])))
		}
	case isa.CMP:
		for i := 0; i < 4; i++ {
			if s[0][i] < 0 {
				r[i] = s[1][i]
			} else {
				r[i] = s[2][i]
			}
		}
	case isa.LRP:
		for i := 0; i < 4; i++ {
			r[i] = s[0][i]*s[1][i] + (1-s[0][i])*s[2][i]
		}
	case isa.XPD:
		r = s[0].Cross(s[1])
	case isa.RCP:
		r = splat(1 / s[0][0])
	case isa.RSQ:
		r = splat(float32(1 / math.Sqrt(math.Abs(float64(s[0][0])))))
	case isa.EX2:
		r = splat(float32(math.Exp2(float64(s[0][0]))))
	case isa.LG2:
		r = splat(float32(math.Log2(math.Abs(float64(s[0][0])))))
	case isa.POW:
		r = splat(float32(math.Pow(math.Abs(float64(s[0][0])), float64(s[1][0]))))
	case isa.SIN:
		r = splat(float32(math.Sin(float64(s[0][0]))))
	case isa.COS:
		r = splat(float32(math.Cos(float64(s[0][0]))))
	case isa.LIT:
		r = lit(s[0])
	default:
		panic(fmt.Sprintf("shaderemu: unhandled opcode %v", in.Op))
	}
	e.writeDst(t, lane, in.Dst, in.Saturate, r)
}

func vecCmp(a, b vmath.Vec4, pred func(x, y float32) bool) vmath.Vec4 {
	var r vmath.Vec4
	for i := 0; i < 4; i++ {
		if pred(a[i], b[i]) {
			r[i] = 1
		}
	}
	return r
}

func splat(f float32) vmath.Vec4 { return vmath.Vec4{f, f, f, f} }

func floorf(f float32) float32 { return float32(math.Floor(float64(f))) }

func vecMin(a, b vmath.Vec4) vmath.Vec4 {
	var r vmath.Vec4
	for i := 0; i < 4; i++ {
		if a[i] < b[i] {
			r[i] = a[i]
		} else {
			r[i] = b[i]
		}
	}
	return r
}

func vecMax(a, b vmath.Vec4) vmath.Vec4 {
	var r vmath.Vec4
	for i := 0; i < 4; i++ {
		if a[i] > b[i] {
			r[i] = a[i]
		} else {
			r[i] = b[i]
		}
	}
	return r
}

// lit implements the ARB LIT instruction: the classic ambient /
// diffuse / specular coefficient helper.
func lit(s vmath.Vec4) vmath.Vec4 {
	diff := s[0]
	if diff < 0 {
		diff = 0
	}
	specBase := s[1]
	if specBase < 0 {
		specBase = 0
	}
	power := s[3]
	if power < -128 {
		power = -128
	}
	if power > 128 {
		power = 128
	}
	var spec float32
	if s[0] > 0 {
		spec = float32(math.Pow(float64(specBase), float64(power)))
	}
	return vmath.Vec4{1, diff, spec, 1}
}
