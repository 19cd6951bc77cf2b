package isa

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refAssemble is Assemble as it was when it split its source into
// lines and operands, kept as the model: the in-place parser must
// accept the same texts, build the same programs and fail with the same
// messages.
func refAssemble(kind ProgramKind, name, text string) (*Program, error) {
	p := &Program{Kind: kind, Name: name}
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "!!") {
			switch strings.ToUpper(line) {
			case "!!ATTILAVP", "!!ARBVP1.0":
				p.Kind = VertexProgram
			case "!!ATTILAFP", "!!ARBFP1.0":
				p.Kind = FragmentProgram
			default:
				return nil, fmt.Errorf("%s:%d: unknown header %q", name, ln+1, line)
			}
			continue
		}
		in, err := refParseInstruction(strings.TrimSuffix(line, ";"))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
		}
		p.Instr = append(p.Instr, in)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func refParseInstruction(line string) (Instruction, error) {
	var in Instruction
	fields := strings.SplitN(line, " ", 2)
	mn := strings.ToUpper(strings.TrimSpace(fields[0]))
	if strings.HasSuffix(mn, "_SAT") {
		in.Saturate = true
		mn = strings.TrimSuffix(mn, "_SAT")
	}
	op, ok := mnemonics[mn]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in.Op = op
	info := op.Info()
	var args []string
	if len(fields) == 2 {
		for _, a := range strings.Split(fields[1], ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	want := info.NSrc
	if info.HasDst {
		want++
	}
	if info.Texture {
		want += 2
	}
	if len(args) != want {
		return in, fmt.Errorf("%s: want %d operands, got %d", mn, want, len(args))
	}
	i := 0
	if info.HasDst {
		dst, err := parseDst(args[i])
		if err != nil {
			return in, err
		}
		in.Dst = dst
		i++
	}
	for s := 0; s < info.NSrc; s++ {
		src, err := parseSrc(args[i])
		if err != nil {
			return in, err
		}
		in.Src[s] = src
		i++
	}
	if info.Texture {
		smp := args[i]
		if len(smp) < 2 || (smp[0] != 't' && smp[0] != 'T') {
			return in, fmt.Errorf("bad sampler %q", smp)
		}
		n, err := strconv.Atoi(smp[1:])
		if err != nil || n < 0 || n > 15 {
			return in, fmt.Errorf("bad sampler %q", smp)
		}
		in.Sampler = uint8(n)
		i++
		switch strings.ToUpper(args[i]) {
		case "1D":
			in.Target = Tex1D
		case "2D":
			in.Target = Tex2D
		case "3D":
			in.Target = Tex3D
		case "CUBE":
			in.Target = TexCube
		default:
			return in, fmt.Errorf("bad texture target %q", args[i])
		}
	}
	return in, nil
}

// mangle rewrites one assembly text the ways a hand-written source
// differs from a disassembly: case, spacing, comments, headers, blank
// lines, semicolons, and now and then a broken token.
func mangle(rng *rand.Rand, text string) string {
	var b strings.Builder
	if rng.Intn(3) == 0 {
		b.WriteString([]string{"!!attilaVP\n", "!!ARBfp1.0\n", "!!bogus\n", "\n\n"}[rng.Intn(4)])
	}
	for _, line := range strings.Split(text, "\n") {
		switch rng.Intn(12) {
		case 0:
			line = strings.ToLower(line)
		case 1:
			line = strings.ReplaceAll(line, ", ", " ,  ")
		case 2:
			line = "  " + line + " ; # note"
		case 3:
			line += " // note"
		case 4:
			line = strings.Replace(line, ",", "", 1)
		case 5:
			line = strings.Replace(line, " ", "_SAT ", 1)
		case 6:
			line = strings.Replace(line, "2D", "cube", 1)
		case 7:
			line = strings.Replace(line, "t", "q", 1)
		case 8:
			line = strings.Replace(line, "r", "r9", 1)
		case 9:
			line = strings.Replace(line, ";", " ;", 1)
		}
		b.WriteString(line)
		b.WriteString([]string{"\n", "\n\n", "\r\n"}[rng.Intn(3)])
	}
	return b.String()
}

func TestAssembleMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		kind := ProgramKind(trial % 2)
		text := randomProgram(rng, kind).Disassemble()
		if trial%4 != 0 {
			text = mangle(rng, text)
		}
		got, gerr := Assemble(kind, "m", text)
		want, werr := refAssemble(kind, "m", text)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: error %v, model %v\n%s", trial, gerr, werr, text)
		}
		if gerr != nil {
			continue
		}
		if got.Kind != want.Kind || got.Disassemble() != want.Disassemble() {
			t.Fatalf("trial %d: program differs from the model's\n%s", trial, text)
		}
	}
}

// TestAssembleAllocations pins what assembling a fixed-function-sized
// program costs: the Program, its instructions and its decoded form.
func TestAssembleAllocations(t *testing.T) {
	src := "!!ATTILAfp\nMOV r0, v1\nTEX r1, v4, t0, 2D\nMUL r0, r0, r1\n" +
		"MAD_SAT r4.x, v3.x, c1.x, c1.y\nLRP r0.xyz, r4.x, r0, c2\nMOV o0, r0\nEND\n"
	if n := testing.AllocsPerRun(50, func() { MustAssemble(FragmentProgram, "ff", src) }); n > 3 {
		t.Fatalf("Assemble allocates %.0f objects, want at most 3", n)
	}
}
