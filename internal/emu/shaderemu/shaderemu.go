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
	"math/bits"

	"attila/internal/isa"
	"attila/internal/vmath"
)

// Lanes is the number of shader inputs executed in lockstep per
// thread (a fragment quad, or four vertices).
const Lanes = 4

// Reg is one temporary register of a thread, component-major: Reg[c][l]
// is component c (x, y, z, w) of lane l. A swizzle then picks whole
// rows and a write mask names the rows an instruction computes and
// stores.
type Reg [4][Lanes]float32

// Thread holds the architectural state of one shader thread: the
// input and output banks of each of the four lanes, the temporaries of
// all four, the program counter, and per-lane liveness.
type Thread struct {
	PC      int
	In      [Lanes][isa.MaxInputs]vmath.Vec4
	Out     [Lanes][isa.MaxOutputs]vmath.Vec4
	Temp    []Reg
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
// registers. Afterwards it is what NewThread returns for that program,
// but for In, which is the caller's to fill. Temp storage is reused
// when it is large enough.
func (t *Thread) Reset(temps int) {
	t.PC = 0
	t.Done = false
	t.Blocked = nil
	t.Active = [Lanes]bool{}
	t.Killed = [Lanes]bool{}
	if cap(t.Temp) < temps {
		t.Temp = make([]Reg, temps)
	} else {
		t.Temp = t.Temp[:temps]
		clear(t.Temp)
	}
	t.Out = [Lanes][isa.MaxOutputs]vmath.Vec4{}
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
// Only the source rows the opcode reads (Decoded.Reads) are loaded,
// and a component-wise opcode computes only the rows its write mask
// names. Those rows are computed for all four lanes — active or not:
// texture derivatives need all four corners, and for the rest an idle
// lane costs less than a test — but only active lanes are written. The
// float32 expression of each opcode is part of the determinism
// contract (DESIGN.md §10): frames are compared bit-for-bit across
// commits.
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
	}

	// Every remaining opcode reads at least one source.
	var a, b, c, r Reg
	e.load(t, &op.Src[0], op.Reads, &a)
	if op.NSrc > 1 {
		e.load(t, &op.Src[1], op.Reads, &b)
		if op.NSrc > 2 {
			e.load(t, &op.Src[2], op.Reads, &c)
		}
	}
	m := op.Dst.Mask
	switch op.Op {
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
		for l := range req.Coord {
			co := &req.Coord[l]
			co[0], co[1], co[2], co[3] = a[0][l], a[1][l], a[2][l], a[3][l]
			req.Active[l] = t.Active[l] && !t.Killed[l]
		}
		t.Blocked = req
		return op
	case isa.KIL:
		for l, on := range t.Active {
			if on && (a[0][l] < 0 || a[1][l] < 0 || a[2][l] < 0 || a[3][l] < 0) {
				t.Killed[l] = true
			}
		}
		return op
	case isa.MOV:
		t.store(op.Dst, op.Saturate, &a)
		return op
	case isa.ADD:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				o[l] = add(x[l], y[l])
			}
		}
	case isa.SUB:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				o[l] = x[l] - y[l]
			}
		}
	case isa.MUL:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				o[l] = mul(x[l], y[l])
			}
		}
	case isa.MAD:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, z, o := &a[i], &b[i], &c[i], &r[i]
			for l := range o {
				o[l] = add(float32(mul(x[l], y[l])), z[l])
			}
		}
	case isa.MIN:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				if x[l] < y[l] {
					o[l] = x[l]
				} else {
					o[l] = y[l]
				}
			}
		}
	case isa.MAX:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				if x[l] > y[l] {
					o[l] = x[l]
				} else {
					o[l] = y[l]
				}
			}
		}
	case isa.SLT:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				if x[l] < y[l] {
					o[l] = 1
				}
			}
		}
	case isa.SGE:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, o := &a[i], &b[i], &r[i]
			for l := range o {
				if x[l] >= y[l] {
					o[l] = 1
				}
			}
		}
	case isa.FRC:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, o := &a[i], &r[i]
			for l := range o {
				o[l] = x[l] - floorf(x[l])
			}
		}
	case isa.FLR:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, o := &a[i], &r[i]
			for l := range o {
				o[l] = floorf(x[l])
			}
		}
	case isa.ABS:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, o := &a[i], &r[i]
			for l := range o {
				o[l] = float32(math.Abs(float64(x[l])))
			}
		}
	case isa.CMP:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, z, o := &a[i], &b[i], &c[i], &r[i]
			for l := range o {
				if x[l] < 0 {
					o[l] = y[l]
				} else {
					o[l] = z[l]
				}
			}
		}
	case isa.LRP:
		for ; m != 0; m &= m - 1 {
			i := low(m)
			x, y, z, o := &a[i], &b[i], &c[i], &r[i]
			for l := range o {
				// (1-x)*z, keeping 1-x's NaN over z's as the reference does.
				o[l] = add(mul(x[l], y[l]), mul(z[l], 1-x[l]))
			}
		}
	case isa.DP3:
		for l := range r[0] {
			d := a[0][l]*b[0][l] + a[1][l]*b[1][l] + a[2][l]*b[2][l]
			if d != d {
				d = dotNaN(&a, &b, 3, l)
			}
			r[0][l] = d
		}
		r.splat(m)
	case isa.DP4:
		for l := range r[0] {
			d := a[0][l]*b[0][l] + a[1][l]*b[1][l] + a[2][l]*b[2][l] + a[3][l]*b[3][l]
			if d != d {
				d = dotNaN(&a, &b, 4, l)
			}
			r[0][l] = d
		}
		r.splat(m)
	case isa.DPH:
		for l := range r[0] {
			d := a[0][l]*b[0][l] + a[1][l]*b[1][l] + a[2][l]*b[2][l] + b[3][l]
			if d != d {
				d = add(b[3][l], dotNaN(&a, &b, 3, l)) // the dot's NaN over b.w's
			}
			r[0][l] = d
		}
		r.splat(m)
	case isa.DST:
		for l := range r[0] {
			r[0][l], r[1][l], r[2][l], r[3][l] = 1, mul(a[1][l], b[1][l]), a[2][l], b[3][l]
		}
	case isa.XPD:
		for l := range r[0] {
			r[0][l] = mul(a[1][l], b[2][l]) - mul(a[2][l], b[1][l])
			r[1][l] = mul(a[2][l], b[0][l]) - mul(a[0][l], b[2][l])
			r[2][l] = mul(a[0][l], b[1][l]) - mul(a[1][l], b[0][l])
		}
	case isa.RCP:
		for l := range r[0] {
			r[0][l] = 1 / a[0][l]
		}
		r.splat(m)
	case isa.RSQ:
		for l := range r[0] {
			r[0][l] = float32(1 / math.Sqrt(math.Abs(float64(a[0][l]))))
		}
		r.splat(m)
	case isa.EX2:
		for l := range r[0] {
			r[0][l] = float32(math.Exp2(float64(a[0][l])))
		}
		r.splat(m)
	case isa.LG2:
		for l := range r[0] {
			r[0][l] = float32(math.Log2(math.Abs(float64(a[0][l]))))
		}
		r.splat(m)
	case isa.POW:
		for l := range r[0] {
			r[0][l] = float32(math.Pow(math.Abs(float64(a[0][l])), float64(b[0][l])))
		}
		r.splat(m)
	case isa.SIN:
		for l := range r[0] {
			r[0][l] = float32(math.Sin(float64(a[0][l])))
		}
		r.splat(m)
	case isa.COS:
		for l := range r[0] {
			r[0][l] = float32(math.Cos(float64(a[0][l])))
		}
		r.splat(m)
	case isa.LIT:
		for l := range r[0] {
			r[0][l], r[3][l] = 1, 1
			r[1][l], r[2][l] = lit(a[0][l], a[1][l], a[3][l])
		}
	default:
		panic(fmt.Sprintf("shaderemu: unhandled opcode %v", op.Op))
	}
	t.store(op.Dst, op.Saturate, &r)
	return op
}

// load fills the rows of v named in need from source s: row i is
// component s.Comp[i] of the register in every lane, negated when
// s.Negate. Every row is written element by element: a row built in a
// local and assigned whole is read back later with one wide load that
// stalls on store forwarding.
func (e *Emulator) load(t *Thread, s *isa.DecodedSrc, need isa.WriteMask, v *Reg) {
	switch s.Bank {
	case isa.BankTemp:
		reg := &t.Temp[s.Index]
		for m := need; m != 0; m &= m - 1 {
			i := low(m)
			src, dst := &reg[s.Comp[i]&3], &v[i]
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		}
	case isa.BankInput:
		n := s.Index
		for m := need; m != 0; m &= m - 1 {
			i := low(m)
			k, dst := s.Comp[i]&3, &v[i]
			dst[0], dst[1], dst[2], dst[3] = t.In[0][n][k], t.In[1][n][k], t.In[2][n][k], t.In[3][n][k]
		}
	default:
		reg := &e.consts[s.Index]
		for m := need; m != 0; m &= m - 1 {
			i := low(m)
			x, dst := reg[s.Comp[i]&3], &v[i]
			dst[0], dst[1], dst[2], dst[3] = x, x, x, x
		}
	}
	if s.Negate {
		for m := need; m != 0; m &= m - 1 {
			row := &v[low(m)]
			for l := range row {
				row[l] = -row[l]
			}
		}
	}
}

// store writes the rows of r named in d's mask to destination d in
// every active lane, after the optional [0,1] clamp. Other rows of r
// are never read. A temporary takes each row in one piece when all four
// lanes are active (a fragment quad always is), lane by lane otherwise;
// an output, lane-major, takes each row's lanes one by one.
func (t *Thread) store(d isa.DstOperand, sat bool, r *Reg) {
	if sat {
		for m := d.Mask; m != 0; m &= m - 1 {
			row := &r[low(m)]
			for l := range row {
				row[l] = vmath.Clamp01(row[l])
			}
		}
	}
	switch d.Bank {
	case isa.BankTemp:
		reg := &t.Temp[d.Index]
		all := t.Active == [Lanes]bool{true, true, true, true}
		for m := d.Mask; m != 0; m &= m - 1 {
			i := low(m)
			src, dst := &r[i], &reg[i]
			if all {
				dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
				continue
			}
			for l, on := range t.Active {
				if on {
					dst[l] = src[l]
				}
			}
		}
	case isa.BankOutput:
		for l, on := range t.Active {
			if !on {
				continue
			}
			dst := &t.Out[l][d.Index]
			for m := d.Mask; m != 0; m &= m - 1 {
				i := low(m)
				dst[i] = r[i][l]
			}
		}
	default:
		panic("shaderemu: bad destination bank")
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
	var r Reg
	for l, v := range results {
		r[0][l], r[1][l], r[2][l], r[3][l] = v[0], v[1], v[2], v[3]
	}
	t.store(req.Dst, req.Saturate, &r)
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

// low returns the lowest component named in the non-empty mask m.
func low(m isa.WriteMask) int { return bits.TrailingZeros8(uint8(m)) & 3 }

// splat copies row x of r, where a scalar result was computed, to the
// other rows named in m.
func (r *Reg) splat(m isa.WriteMask) {
	x := &r[0]
	for m &^= 1; m != 0; m &= m - 1 {
		row := &r[low(m)]
		row[0], row[1], row[2], row[3] = x[0], x[1], x[2], x[3]
	}
}

// add and mul are x+y and x*y, but where both operands are NaN the
// result is y's, quieted. Go leaves that choice to the compiler: on
// amd64 it is whichever operand the register allocator put in the
// destination, which moves with unrelated edits to the code around it.
// Fixing it here keeps Step's NaNs bit for bit equal to the reference
// interpreter's, whose compiled code returns the right-hand operand
// (the TestNaNsMatchReference sweep holds both to it).
func add(x, y float32) float32 {
	if y != y {
		return y + y
	}
	return x + y
}

func mul(x, y float32) float32 {
	if y != y {
		return y * y
	}
	return x * y
}

// dotNaN is the dot product of rows 0 to n-1 of a and b in lane l,
// summed in order under add's and mul's NaN rule: what a DP opcode
// computes once its plain sum has come out NaN.
func dotNaN(a, b *Reg, n, l int) float32 {
	d := mul(a[0][l], b[0][l])
	for i := 1; i < n; i++ {
		d = add(d, mul(a[i][l], b[i][l]))
	}
	return d
}

func floorf(f float32) float32 { return float32(math.Floor(float64(f))) }

// lit implements the ARB LIT instruction, the classic ambient /
// diffuse / specular coefficient helper, from the source's x, y and w:
// it returns the result's y (diffuse) and z (specular); x and w are 1.
func lit(x, y, w float32) (diff, spec float32) {
	diff = x
	if diff < 0 {
		diff = 0
	}
	specBase := y
	if specBase < 0 {
		specBase = 0
	}
	power := w
	if power < -128 {
		power = -128
	}
	if power > 128 {
		power = 128
	}
	if x > 0 {
		spec = float32(math.Pow(float64(specBase), float64(power)))
	}
	return diff, spec
}
