package isa

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses ARB-style assembly text into a validated Program.
//
// Syntax, one instruction per line (';' optional, '#' and '//' start
// comments):
//
//	!!ATTILAvp                      (or !!ATTILAfp; optional header)
//	MOV r0, v0
//	MAD_SAT r1.xyz, r0, c5, -c6.w
//	DP4 o0.x, v0, c0
//	TEX r2, v4, t0, 2D
//	KIL r3
//	END
//
// Registers are v<n> (input), o<n> (output), r<n> (temporary), c<n>
// (constant). A source may carry a swizzle suffix (.xyzw, .wzyx, or a
// single broadcast component .x) and a leading '-'. A destination may
// carry a write-mask suffix (.xyz). kind selects the validation rules
// when no header line is present.
//
// The source is read in place, a line and an operand at a time, so
// assembling allocates the program and little else.
func Assemble(kind ProgramKind, name, text string) (*Program, error) {
	p := &Program{Kind: kind, Name: name}
	p.Instr = make([]Instruction, 0, strings.Count(text, "\n")+1)
	for ln, rest := 0, text; rest != ""; ln++ {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "!!") {
			switch {
			case strings.EqualFold(line, "!!ATTILAVP"), strings.EqualFold(line, "!!ARBVP1.0"):
				p.Kind = VertexProgram
			case strings.EqualFold(line, "!!ATTILAFP"), strings.EqualFold(line, "!!ARBFP1.0"):
				p.Kind = FragmentProgram
			default:
				return nil, fmt.Errorf("%s:%d: unknown header %q", name, ln+1, line)
			}
			continue
		}
		line = strings.TrimSuffix(line, ";")
		in, err := parseInstruction(line)
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

// MustAssemble is Assemble that panics on error; for statically known
// programs (driver-generated fixed-function shaders, tests).
func MustAssemble(kind ProgramKind, name, text string) *Program {
	p, err := Assemble(kind, name, text)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, opcodeCount)
	for op := Opcode(0); op < opcodeCount; op++ {
		m[op.Info().Name] = op
	}
	return m
}()

// mnemonicKey upper-cases a mnemonic into buf for the table lookup (a
// map index by string(bytes) does not allocate); one too long for buf
// is no mnemonic.
func mnemonicKey(buf *[16]byte, mn string) []byte {
	if len(mn) > len(buf) {
		return nil
	}
	for i := 0; i < len(mn); i++ {
		c := mn[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return buf[:len(mn)]
}

func parseInstruction(line string) (Instruction, error) {
	var in Instruction
	mn, operands, hasOperands := strings.Cut(line, " ")
	var buf [16]byte
	key := mnemonicKey(&buf, strings.TrimSpace(mn))
	if bytes.HasSuffix(key, []byte("_SAT")) {
		in.Saturate = true
		key = key[:len(key)-len("_SAT")]
	}
	op, ok := mnemonics[string(key)]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", strings.TrimSuffix(strings.ToUpper(strings.TrimSpace(mn)), "_SAT"))
	}
	in.Op = op
	info := op.Info()
	nargs := 0
	if hasOperands {
		nargs = strings.Count(operands, ",") + 1
	}
	want := info.NSrc
	if info.HasDst {
		want++
	}
	if info.Texture {
		want += 2 // sampler, target
	}
	if nargs != want {
		return in, fmt.Errorf("%s: want %d operands, got %d", info.Name, want, nargs)
	}
	next := func() string {
		var a string
		a, operands, _ = strings.Cut(operands, ",")
		return strings.TrimSpace(a)
	}
	if info.HasDst {
		dst, err := parseDst(next())
		if err != nil {
			return in, err
		}
		in.Dst = dst
	}
	for s := 0; s < info.NSrc; s++ {
		src, err := parseSrc(next())
		if err != nil {
			return in, err
		}
		in.Src[s] = src
	}
	if info.Texture {
		smp := next()
		if len(smp) < 2 || (smp[0] != 't' && smp[0] != 'T') {
			return in, fmt.Errorf("bad sampler %q", smp)
		}
		n, err := strconv.Atoi(smp[1:])
		if err != nil || n < 0 || n > 15 {
			return in, fmt.Errorf("bad sampler %q", smp)
		}
		in.Sampler = uint8(n)
		switch target := next(); {
		case strings.EqualFold(target, "1D"):
			in.Target = Tex1D
		case strings.EqualFold(target, "2D"):
			in.Target = Tex2D
		case strings.EqualFold(target, "3D"):
			in.Target = Tex3D
		case strings.EqualFold(target, "CUBE"):
			in.Target = TexCube
		default:
			return in, fmt.Errorf("bad texture target %q", target)
		}
	}
	return in, nil
}

func parseBankIndex(s string) (Bank, uint8, string, error) {
	if s == "" {
		return 0, 0, "", fmt.Errorf("empty register")
	}
	var bank Bank
	switch s[0] {
	case 'v', 'V':
		bank = BankInput
	case 'o', 'O':
		bank = BankOutput
	case 'r', 'R':
		bank = BankTemp
	case 'c', 'C':
		bank = BankConst
	default:
		return 0, 0, "", fmt.Errorf("bad register %q", s)
	}
	rest := s[1:]
	suffix := ""
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		suffix = rest[dot+1:]
		rest = rest[:dot]
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || n > 255 {
		return 0, 0, "", fmt.Errorf("bad register index in %q", s)
	}
	return bank, uint8(n), suffix, nil
}

func parseDst(s string) (DstOperand, error) {
	bank, idx, suffix, err := parseBankIndex(s)
	if err != nil {
		return DstOperand{}, err
	}
	mask := MaskXYZW
	if suffix != "" {
		mask = 0
		prev := -1
		for _, ch := range suffix {
			c := compIndex(byte(ch))
			if c < 0 || c <= prev {
				return DstOperand{}, fmt.Errorf("bad write mask %q", s)
			}
			mask |= 1 << c
			prev = c
		}
	}
	return DstOperand{Bank: bank, Index: idx, Mask: mask}, nil
}

func parseSrc(s string) (SrcOperand, error) {
	var op SrcOperand
	if strings.HasPrefix(s, "-") {
		op.Negate = true
		s = strings.TrimSpace(s[1:])
	}
	bank, idx, suffix, err := parseBankIndex(s)
	if err != nil {
		return SrcOperand{}, err
	}
	op.Bank, op.Index = bank, idx
	op.Swizzle = SwizzleXYZW
	switch len(suffix) {
	case 0:
	case 1:
		c := compIndex(suffix[0])
		if c < 0 {
			return SrcOperand{}, fmt.Errorf("bad swizzle %q", s)
		}
		op.Swizzle = Broadcast(c)
	case 4:
		comps := [4]int{}
		for i := 0; i < 4; i++ {
			c := compIndex(suffix[i])
			if c < 0 {
				return SrcOperand{}, fmt.Errorf("bad swizzle %q", s)
			}
			comps[i] = c
		}
		op.Swizzle = MakeSwizzle(comps[0], comps[1], comps[2], comps[3])
	default:
		return SrcOperand{}, fmt.Errorf("bad swizzle %q (must be 1 or 4 components)", s)
	}
	return op, nil
}

func compIndex(c byte) int {
	switch c {
	case 'x', 'X':
		return 0
	case 'y', 'Y':
		return 1
	case 'z', 'Z':
		return 2
	case 'w', 'W':
		return 3
	}
	return -1
}
