// Package shaderemu implements the ShaderEmulator (paper §3): a
// threaded interpreter that executes shader programs instruction by
// instruction, updating per-thread register state. The emulator
// contains no timing; the ShaderFetch/DecodeExecute boxes in
// internal/gpu drive it cycle by cycle, and the functional reference
// renderer drives it to completion directly.
//
// A thread processes a group of up to four shader inputs in lockstep
// (one fragment quad or four vertices), matching the paper's grouped
// execution where the shader works as a 512-bit processor.
package shaderemu

import (
	"fmt"
	"math"

	"attila/internal/isa"
	"attila/internal/vmath"
)

// Lanes is the number of shader inputs executed in lockstep per
// thread (a fragment quad, or four vertices).
const Lanes = 4

// Thread holds the architectural state of one shader thread: the
// input, output and temporary banks for each of the four lanes, the
// program counter, and per-lane liveness.
type Thread struct {
	PC      int
	In      [Lanes][isa.MaxInputs]vmath.Vec4
	Out     [Lanes][isa.MaxOutputs]vmath.Vec4
	Temp    [Lanes][]vmath.Vec4
	Active  [Lanes]bool // lane carries a real input
	Killed  [Lanes]bool // lane discarded by KIL
	Done    bool        // executed END
	Blocked *TexRequest // non-nil while waiting on a texture result

	// texReq is the thread-owned backing store for Blocked. A thread
	// has at most one texture operation in flight (Step panics
	// otherwise), and once CompleteTexture runs nothing references
	// the old request, so reusing the same storage keeps the shader
	// hot loop allocation-free.
	texReq TexRequest
}

// Reset prepares the thread to run a program needing temps temporary
// registers, reusing lane storage where possible.
func (t *Thread) Reset(temps int) {
	t.PC = 0
	t.Done = false
	t.Blocked = nil
	for l := 0; l < Lanes; l++ {
		t.Active[l] = false
		t.Killed[l] = false
		if cap(t.Temp[l]) < temps {
			t.Temp[l] = make([]vmath.Vec4, temps)
		} else {
			t.Temp[l] = t.Temp[l][:temps]
			for i := range t.Temp[l] {
				t.Temp[l][i] = vmath.Vec4{}
			}
		}
	}
}

// TexMode distinguishes the texture instruction variants.
type TexMode uint8

// Texture sampling modes.
const (
	TexModeNormal TexMode = iota // TEX: lod from derivatives
	TexModeBias                  // TXB: lod bias in coord.w
	TexModeProj                  // TXP: coords divided by coord.w
	TexModeLod                   // TXL: explicit lod in coord.w
)

// TexRequest is an in-flight texture operation for a whole thread
// (all four lanes sample together, which is what makes quad-granular
// derivative computation possible).
type TexRequest struct {
	Sampler uint8
	Target  isa.TexTarget
	Mode    TexMode
	Coord   [Lanes]vmath.Vec4
	Active  [Lanes]bool
	// Destination to write when the sample completes.
	Dst      isa.DstOperand
	Saturate bool
}

// Emulator executes a program against thread state. The constant bank
// is shared by all threads running the same batch; the decoded
// instructions are shared by every emulator of the program.
type Emulator struct {
	prog   *isa.Program
	ops    []isa.Decoded
	consts []vmath.Vec4
}

// New creates an emulator for prog with the given constant bank
// (nil-padded to the architectural limit). The program must have been
// validated: that is where it was decoded, once.
func New(prog *isa.Program, consts []vmath.Vec4) *Emulator {
	ops := prog.Decoded()
	if len(ops) != len(prog.Instr) {
		panic(fmt.Sprintf("shaderemu: program %q was not validated", prog.Name))
	}
	c := make([]vmath.Vec4, isa.MaxConsts)
	copy(c, consts)
	return &Emulator{prog: prog, ops: ops, consts: c}
}

// Program returns the program being executed.
func (e *Emulator) Program() *isa.Program { return e.prog }

// NewThread allocates a thread sized for the program.
func (e *Emulator) NewThread() *Thread {
	t := &Thread{}
	t.Reset(e.prog.TempsUsed())
	return t
}

// Step executes the instruction at t.PC for the whole quad and
// advances. It returns the decoded instruction executed, for timing
// purposes. If the instruction is a texture operation the thread
// blocks (t.Blocked is set) and the caller must eventually call
// CompleteTexture; Step must not be called again until then. Calling
// Step on a finished or blocked thread panics: that is a
// timing-simulator bug.
//
// The opcode is dispatched once and every lane runs inside its case.
// Sources are gathered, and results computed, for all four lanes —
// active or not: texture derivatives need all four corners, and for
// the rest an idle lane costs less than a test — but only active
// lanes are written. The float32 expression of each opcode is part of
// the determinism contract (DESIGN.md §10): frames are compared
// bit-for-bit across commits.
func (e *Emulator) Step(t *Thread) *isa.Decoded {
	if t.Done {
		panic("shaderemu: Step on finished thread")
	}
	if t.Blocked != nil {
		panic("shaderemu: Step on thread blocked on texture")
	}
	op := &e.ops[t.PC]
	t.PC++
	switch op.Op {
	case isa.END:
		t.Done = true
		return op
	case isa.NOP:
		return op
	case isa.TEX, isa.TXB, isa.TXP, isa.TXL:
		req := &t.texReq
		*req = TexRequest{Sampler: op.Sampler, Target: op.Target, Dst: op.Dst, Saturate: op.Saturate}
		switch op.Op {
		case isa.TXB:
			req.Mode = TexModeBias
		case isa.TXP:
			req.Mode = TexModeProj
		case isa.TXL:
			req.Mode = TexModeLod
		}
		e.gather(t, &op.Src[0], &req.Coord)
		for l := range req.Active {
			req.Active[l] = t.Active[l] && !t.Killed[l]
		}
		t.Blocked = req
		return op
	}

	// Every remaining opcode reads at least one source.
	var a, b, c, r [Lanes]vmath.Vec4
	e.gather(t, &op.Src[0], &a)
	if op.NSrc > 1 {
		e.gather(t, &op.Src[1], &b)
		if op.NSrc > 2 {
			e.gather(t, &op.Src[2], &c)
		}
	}
	switch op.Op {
	case isa.KIL:
		for l, v := range a {
			if t.Active[l] && (v[0] < 0 || v[1] < 0 || v[2] < 0 || v[3] < 0) {
				t.Killed[l] = true
			}
		}
		return op
	case isa.MOV:
		r = a
	case isa.ADD:
		for l := range r {
			r[l] = a[l].Add(b[l])
		}
	case isa.SUB:
		for l := range r {
			r[l] = a[l].Sub(b[l])
		}
	case isa.MUL:
		for l := range r {
			r[l] = a[l].Mul(b[l])
		}
	case isa.MAD:
		for l := range r {
			r[l] = a[l].Mul(b[l]).Add(c[l])
		}
	case isa.DP3:
		for l := range r {
			r[l] = splat(a[l].Dot3(b[l]))
		}
	case isa.DP4:
		for l := range r {
			r[l] = splat(a[l].Dot4(b[l]))
		}
	case isa.DPH:
		for l := range r {
			r[l] = splat(a[l].Dot3(b[l]) + b[l][3])
		}
	case isa.DST:
		for l := range r {
			r[l] = vmath.Vec4{1, a[l][1] * b[l][1], a[l][2], b[l][3]}
		}
	case isa.MIN:
		for l := range r {
			r[l] = vecMin(a[l], b[l])
		}
	case isa.MAX:
		for l := range r {
			r[l] = vecMax(a[l], b[l])
		}
	case isa.SLT:
		for l := range r {
			for i := range r[l] {
				if a[l][i] < b[l][i] {
					r[l][i] = 1
				}
			}
		}
	case isa.SGE:
		for l := range r {
			for i := range r[l] {
				if a[l][i] >= b[l][i] {
					r[l][i] = 1
				}
			}
		}
	case isa.FRC:
		for l := range r {
			for i := range r[l] {
				r[l][i] = a[l][i] - floorf(a[l][i])
			}
		}
	case isa.FLR:
		for l := range r {
			for i := range r[l] {
				r[l][i] = floorf(a[l][i])
			}
		}
	case isa.ABS:
		for l := range r {
			for i := range r[l] {
				r[l][i] = float32(math.Abs(float64(a[l][i])))
			}
		}
	case isa.CMP:
		for l := range r {
			for i := range r[l] {
				if a[l][i] < 0 {
					r[l][i] = b[l][i]
				} else {
					r[l][i] = c[l][i]
				}
			}
		}
	case isa.LRP:
		for l := range r {
			for i := range r[l] {
				r[l][i] = a[l][i]*b[l][i] + (1-a[l][i])*c[l][i]
			}
		}
	case isa.XPD:
		for l := range r {
			r[l] = a[l].Cross(b[l])
		}
	case isa.RCP:
		for l := range r {
			r[l] = splat(1 / a[l][0])
		}
	case isa.RSQ:
		for l := range r {
			r[l] = splat(float32(1 / math.Sqrt(math.Abs(float64(a[l][0])))))
		}
	case isa.EX2:
		for l := range r {
			r[l] = splat(float32(math.Exp2(float64(a[l][0]))))
		}
	case isa.LG2:
		for l := range r {
			r[l] = splat(float32(math.Log2(math.Abs(float64(a[l][0])))))
		}
	case isa.POW:
		for l := range r {
			r[l] = splat(float32(math.Pow(math.Abs(float64(a[l][0])), float64(b[l][0]))))
		}
	case isa.SIN:
		for l := range r {
			r[l] = splat(float32(math.Sin(float64(a[l][0]))))
		}
	case isa.COS:
		for l := range r {
			r[l] = splat(float32(math.Cos(float64(a[l][0]))))
		}
	case isa.LIT:
		for l := range r {
			r[l] = lit(a[l])
		}
	default:
		panic(fmt.Sprintf("shaderemu: unhandled opcode %v", op.Op))
	}
	t.store(op.Dst, op.Saturate, &r)
	return op
}

// gather reads source operand s for all four lanes: one bank lookup,
// then either the plain register or its swizzled, negated components,
// read straight from the register file.
func (e *Emulator) gather(t *Thread, s *isa.DecodedSrc, v *[Lanes]vmath.Vec4) {
	var reg [Lanes]*vmath.Vec4
	switch s.Bank {
	case isa.BankInput:
		for l := range reg {
			reg[l] = &t.In[l][s.Index]
		}
	case isa.BankTemp:
		for l := range reg {
			reg[l] = &t.Temp[l][s.Index]
		}
	default:
		for l := range reg {
			reg[l] = &e.consts[s.Index]
		}
	}
	if s.Plain {
		for l, r := range reg {
			v[l] = *r
		}
		return
	}
	// Decoding leaves 0..3 here; the masks let the compiler see it too.
	x, y, z, w := s.Comp[0]&3, s.Comp[1]&3, s.Comp[2]&3, s.Comp[3]&3
	for l, r := range reg {
		if s.Negate {
			v[l] = vmath.Vec4{-r[x], -r[y], -r[z], -r[w]}
		} else {
			v[l] = vmath.Vec4{r[x], r[y], r[z], r[w]}
		}
	}
}

// store writes r to destination d in every active lane, under the
// write mask and after the optional [0,1] clamp.
func (t *Thread) store(d isa.DstOperand, sat bool, r *[Lanes]vmath.Vec4) {
	for l, v := range r {
		if !t.Active[l] {
			continue
		}
		if sat {
			v = v.Clamp01()
		}
		var reg *vmath.Vec4
		switch d.Bank {
		case isa.BankTemp:
			reg = &t.Temp[l][d.Index]
		case isa.BankOutput:
			reg = &t.Out[l][d.Index]
		default:
			panic("shaderemu: bad destination bank")
		}
		if d.Mask == isa.MaskXYZW {
			*reg = v
			continue
		}
		for i := range reg {
			if d.Mask.Has(i) {
				reg[i] = v[i]
			}
		}
	}
}

// CompleteTexture writes the sampled results for the thread's pending
// texture request and unblocks it.
func (e *Emulator) CompleteTexture(t *Thread, results [Lanes]vmath.Vec4) {
	req := t.Blocked
	if req == nil {
		panic("shaderemu: CompleteTexture without pending request")
	}
	t.Blocked = nil
	t.store(req.Dst, req.Saturate, &results)
}

// SampleFunc performs a texture lookup for a whole thread; used by
// Run for functional (non-timed) execution.
type SampleFunc func(req *TexRequest) [Lanes]vmath.Vec4

// Run executes the thread to completion, resolving texture requests
// through sample. It returns the number of instructions executed.
func (e *Emulator) Run(t *Thread, sample SampleFunc) (int, error) {
	steps := 0
	for !t.Done {
		if steps > 1<<20 {
			return steps, fmt.Errorf("shaderemu: program %q did not terminate", e.prog.Name)
		}
		e.Step(t)
		steps++
		if t.Blocked != nil {
			if sample == nil {
				return steps, fmt.Errorf("shaderemu: program %q samples textures but no sampler provided", e.prog.Name)
			}
			e.CompleteTexture(t, sample(t.Blocked))
		}
	}
	return steps, nil
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
