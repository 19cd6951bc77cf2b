package shaderemu_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"attila/internal/emu/shaderemu"
	"attila/internal/gpu"
	"attila/internal/isa"
	"attila/internal/vmath"
	"attila/internal/workload"
)

// A fuzzed program is a run of fixed-size records, one instruction
// each; END is appended. encodeInstr and decodeInstr are inverses on
// valid instructions, so real programs can seed the corpus.
const instrBytes = 14

var srcBanks = [3]isa.Bank{isa.BankInput, isa.BankTemp, isa.BankConst}

func decodeInstr(b []byte) isa.Instruction {
	in := isa.Instruction{
		Op:       isa.Opcode(b[0] % uint8(isa.END)), // NOP..KIL
		Saturate: b[1]&1 != 0,
		Dst:      isa.DstOperand{Bank: isa.BankTemp, Mask: isa.WriteMask(b[3] & 0xF)},
		Sampler:  b[13] & 0xF,
		Target:   isa.TexTarget(b[13] >> 4 & 3),
	}
	if b[1]&2 != 0 {
		in.Dst.Bank = isa.BankOutput
	}
	in.Dst.Index = b[2] % uint8(in.Dst.Bank.Limit())
	if in.Dst.Mask == 0 {
		in.Dst.Mask = isa.MaskXYZW
	}
	for s := range in.Src {
		r := b[4+3*s:]
		bank := srcBanks[r[0]%3]
		in.Src[s] = isa.SrcOperand{
			Bank: bank, Index: r[1] % uint8(bank.Limit()),
			Swizzle: isa.Swizzle(r[2]), Negate: b[1]&(4<<s) != 0,
		}
	}
	return in
}

func encodeInstr(in isa.Instruction) []byte {
	b := make([]byte, instrBytes)
	b[0] = uint8(in.Op)
	if in.Saturate {
		b[1] |= 1
	}
	if in.Dst.Bank == isa.BankOutput {
		b[1] |= 2
	}
	b[2], b[3] = in.Dst.Index, uint8(in.Dst.Mask)
	for s, src := range in.Src {
		for i, bank := range srcBanks {
			if src.Bank == bank {
				b[4+3*s] = uint8(i)
			}
		}
		b[5+3*s], b[6+3*s] = src.Index, uint8(src.Swizzle)
		if src.Negate {
			b[1] |= 4 << s
		}
	}
	b[13] = in.Sampler | uint8(in.Target)<<4
	return b
}

func encodeProgram(p *isa.Program) []byte {
	var code []byte
	for _, in := range p.Instr[:len(p.Instr)-1] { // END is implied
		code = append(code, encodeInstr(in)...)
	}
	return code
}

// seedPrograms are the programs the benchmark's scenes run: every
// distinct vertex and fragment program of the workload generators
// (driver-generated fixed function among them) and the shader-alu
// scene's program.
func seedPrograms(t testing.TB) []*isa.Program {
	seen := map[*isa.Program]bool{}
	var progs []*isa.Program
	add := func(p *isa.Program) {
		if p != nil && !seen[p] {
			seen[p] = true
			progs = append(progs, p)
		}
	}
	for _, name := range workload.Names() {
		pipe, err := gpu.New(gpu.BaselineUnified(), 64, 48)
		if err != nil {
			t.Fatal(err)
		}
		cmds, _, err := workload.Build(name, pipe, workload.Params{Width: 64, Height: 48, Frames: 1, Aniso: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cmds {
			if d, ok := c.(gpu.CmdDraw); ok {
				add(d.State.VertexProg)
				add(d.State.FragmentProg)
			}
		}
	}
	// bench/scenes.go's shaderALUProgram, which a test cannot import.
	src := "MAD r3.xy, v4, c0, c0.zwzw\nMOV r0, r3\n"
	for i := 0; i < 16; i++ {
		src += "MUL r1, r0.xyxy, r0.xyyx\nSUB r2.x, r1.x, r1.y\nADD r2.y, r1.z, r1.w\n" +
			"ADD r0.xy, r2, r3\nMIN r0.xy, r0, c1.x\nMAX r0.xy, r0, -c1.x\n"
	}
	src += "MUL r4.xy, r0, r0\nADD r4.z, r4.x, r4.y\nMUL_SAT o0.xyz, r4, c1.y\nMOV o0.w, c1.z\nEND\n"
	alu, err := isa.Assemble(isa.FragmentProgram, "alu-fp", src)
	if err != nil {
		t.Fatal(err)
	}
	add(alu)
	return progs
}

func TestInstrCodecRoundTrip(t *testing.T) {
	for _, p := range seedPrograms(t) {
		code := encodeProgram(p)
		for i, want := range p.Instr[:len(p.Instr)-1] {
			got := decodeInstr(code[i*instrBytes:])
			// Operands an opcode does not use carry no meaning.
			info := want.Op.Info()
			for s := info.NSrc; s < len(got.Src); s++ {
				got.Src[s], want.Src[s] = isa.SrcOperand{}, isa.SrcOperand{}
			}
			if !info.HasDst {
				got.Dst, want.Dst = isa.DstOperand{}, isa.DstOperand{}
			}
			if got != want {
				t.Fatalf("%s instr %d: decoded %v, encoded from %v", p.Name, i, got, want)
			}
		}
	}
}

// awkward are the float32 values arithmetic shortcuts get wrong.
var awkward = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 128, -129,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, math.MaxFloat32,
}

func randVec(rng *rand.Rand) vmath.Vec4 {
	var v vmath.Vec4
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = awkward[rng.Intn(len(awkward))]
		} else {
			v[i] = rng.Float32()*8 - 4
		}
	}
	return v
}

func sameBits(a, b vmath.Vec4) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// diffThreads compares the whole architectural state bit for bit.
func diffThreads(got, want *shaderemu.Thread) error {
	if got.PC != want.PC || got.Done != want.Done || got.Killed != want.Killed || got.Active != want.Active {
		return fmt.Errorf("pc/done/killed/active: got %d %v %v %v, want %d %v %v %v",
			got.PC, got.Done, got.Killed, got.Active, want.PC, want.Done, want.Killed, want.Active)
	}
	for l := 0; l < shaderemu.Lanes; l++ {
		for i := range got.Out[l] {
			if !sameBits(got.Out[l][i], want.Out[l][i]) {
				return fmt.Errorf("lane %d o%d: got %v, want %v", l, i, got.Out[l][i], want.Out[l][i])
			}
		}
		for i := range got.Temp[l] {
			if !sameBits(got.Temp[l][i], want.Temp[l][i]) {
				return fmt.Errorf("lane %d r%d: got %v, want %v", l, i, got.Temp[l][i], want.Temp[l][i])
			}
		}
	}
	return nil
}

func diffTexRequests(got, want *shaderemu.TexRequest) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("blocked: got %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if got.Sampler != want.Sampler || got.Target != want.Target || got.Mode != want.Mode ||
		got.Active != want.Active || got.Dst != want.Dst || got.Saturate != want.Saturate {
		return fmt.Errorf("texture request: got %+v, want %+v", *got, *want)
	}
	for l := range got.Coord {
		if !sameBits(got.Coord[l], want.Coord[l]) {
			return fmt.Errorf("texture coord lane %d: got %v, want %v", l, got.Coord[l], want.Coord[l])
		}
	}
	return nil
}

// FuzzDecodedMatchesReference runs a random program (any opcode
// including KIL and TEX*, any swizzle, negate, write mask and _SAT,
// all three source banks) on random registers with a random subset of
// active lanes, through the decoded quad-at-a-time Step and through the
// reference per-lane interpreter, and requires every register of every
// lane to match bit for bit after every instruction.
func FuzzDecodedMatchesReference(f *testing.F) {
	for i, p := range seedPrograms(f) {
		f.Add(encodeProgram(p), int64(i), uint8(0xF))
		f.Add(encodeProgram(p), int64(i)+100, uint8(i))
	}
	f.Fuzz(func(t *testing.T, code []byte, seed int64, active uint8) {
		n := len(code) / instrBytes
		if n > 128 {
			n = 128
		}
		prog := &isa.Program{Kind: isa.FragmentProgram, Name: "fuzz"}
		for i := 0; i < n; i++ {
			prog.Instr = append(prog.Instr, decodeInstr(code[i*instrBytes:]))
		}
		prog.Instr = append(prog.Instr, isa.Instruction{Op: isa.END})
		if err := prog.Validate(); err != nil {
			t.Fatalf("decodeInstr built an invalid program: %v", err)
		}

		rng := rand.New(rand.NewSource(seed))
		consts := make([]vmath.Vec4, isa.MaxConsts)
		for i := range consts {
			consts[i] = randVec(rng)
		}
		emu, ref := shaderemu.New(prog, consts), newRef(prog, consts)
		got, want := emu.NewThread(), emu.NewThread()
		for l := 0; l < shaderemu.Lanes; l++ {
			got.Active[l] = active&(1<<l) != 0
			for i := range got.In[l] {
				got.In[l][i] = randVec(rng)
			}
		}
		want.Active, want.In = got.Active, got.In

		for pc := 0; !want.Done; pc++ {
			op, in := emu.Step(got), ref.Step(want)
			if op.Op != in.Op {
				t.Fatalf("instr %d: Step returned %v, executed %v", pc, op.Op, in.Op)
			}
			err := diffTexRequests(got.Blocked, want.Blocked)
			if err == nil && want.Blocked != nil {
				var texels [shaderemu.Lanes]vmath.Vec4
				for l := range texels {
					texels[l] = randVec(rng)
				}
				emu.CompleteTexture(got, texels)
				ref.CompleteTexture(want, texels)
			}
			if err == nil {
				err = diffThreads(got, want)
			}
			if err != nil {
				t.Fatalf("after instr %d %q: %v\n%s", pc, in, err, prog.Disassemble())
			}
		}
	})
}
