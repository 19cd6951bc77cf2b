package isa

import (
	"fmt"
	"strings"
)

// Instruction is one decoded shader instruction.
type Instruction struct {
	Op       Opcode
	Dst      DstOperand
	Src      [3]SrcOperand
	Saturate bool
	Sampler  uint8     // texture image unit for TEX*
	Target   TexTarget // texture target for TEX*
}

// String disassembles the instruction into canonical assembly.
func (in Instruction) String() string {
	info := in.Op.Info()
	var sb strings.Builder
	sb.WriteString(info.Name)
	if in.Saturate {
		sb.WriteString("_SAT")
	}
	first := true
	arg := func(s string) {
		if first {
			sb.WriteByte(' ')
			first = false
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(s)
	}
	if info.HasDst {
		arg(in.Dst.String())
	}
	for i := 0; i < info.NSrc; i++ {
		arg(in.Src[i].String())
	}
	if info.Texture {
		arg(fmt.Sprintf("t%d", in.Sampler))
		arg(in.Target.String())
	}
	sb.WriteByte(';')
	return sb.String()
}

// ProgramKind distinguishes vertex from fragment programs; the
// unified shader executes both, but validation rules differ (only
// fragment programs may sample textures or KIL).
type ProgramKind uint8

// Program kinds.
const (
	VertexProgram ProgramKind = iota
	FragmentProgram
)

// String names the kind.
func (k ProgramKind) String() string {
	if k == VertexProgram {
		return "vertex"
	}
	return "fragment"
}

// Program is a validated shader program ready to load into a shader
// unit's instruction memory.
type Program struct {
	Kind  ProgramKind
	Name  string
	Instr []Instruction

	temps    int
	inputs   uint32 // bitmask of read input slots
	outputs  uint32 // bitmask of written output slots
	samplers uint32 // bitmask of referenced texture units
	hasKill  bool
	ops      []Decoded // Instr resolved for execution, built by Validate
}

// Validate checks bank usage, register ranges and kind restrictions,
// computes the resource summary and decodes the instructions for
// execution. Every program must end with END.
func (p *Program) Validate() error {
	p.temps, p.inputs, p.outputs, p.samplers, p.hasKill, p.ops = 0, 0, 0, 0, false, nil
	if len(p.Instr) == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	if p.Instr[len(p.Instr)-1].Op != END {
		return fmt.Errorf("program %q: missing END", p.Name)
	}
	for idx, in := range p.Instr {
		info := in.Op.Info()
		if in.Op >= opcodeCount {
			return fmt.Errorf("program %q instr %d: bad opcode %d", p.Name, idx, in.Op)
		}
		if in.Op == END && idx != len(p.Instr)-1 {
			return fmt.Errorf("program %q instr %d: END before last instruction", p.Name, idx)
		}
		if info.Texture || in.Op == KIL {
			if p.Kind != FragmentProgram {
				return fmt.Errorf("program %q instr %d: %s only allowed in fragment programs", p.Name, idx, info.Name)
			}
		}
		if info.HasDst {
			switch in.Dst.Bank {
			case BankTemp, BankOutput:
			default:
				return fmt.Errorf("program %q instr %d: destination bank must be r or o", p.Name, idx)
			}
			if int(in.Dst.Index) >= in.Dst.Bank.Limit() {
				return fmt.Errorf("program %q instr %d: dst index %d out of range", p.Name, idx, in.Dst.Index)
			}
			if in.Dst.Mask == 0 {
				return fmt.Errorf("program %q instr %d: empty write mask", p.Name, idx)
			}
			if in.Dst.Bank == BankTemp {
				if n := int(in.Dst.Index) + 1; n > p.temps {
					p.temps = n
				}
			} else {
				p.outputs |= 1 << in.Dst.Index
			}
		}
		for s := 0; s < info.NSrc; s++ {
			src := in.Src[s]
			switch src.Bank {
			case BankInput, BankTemp, BankConst:
			default:
				return fmt.Errorf("program %q instr %d: source %d bank must be v, r or c", p.Name, idx, s)
			}
			if int(src.Index) >= src.Bank.Limit() {
				return fmt.Errorf("program %q instr %d: src %d index %d out of range", p.Name, idx, s, src.Index)
			}
			switch src.Bank {
			case BankInput:
				p.inputs |= 1 << src.Index
			case BankTemp:
				if n := int(src.Index) + 1; n > p.temps {
					p.temps = n
				}
			}
		}
		if info.Texture {
			if in.Sampler >= 16 {
				return fmt.Errorf("program %q instr %d: sampler t%d out of range", p.Name, idx, in.Sampler)
			}
			p.samplers |= 1 << in.Sampler
		}
		if in.Op == KIL {
			p.hasKill = true
		}
	}
	p.ops = decode(p.Instr)
	return nil
}

// Decoded returns the instructions resolved for execution, one per
// entry of Instr. Validate builds the array once; every emulator and
// shader unit running the program shares it read-only.
func (p *Program) Decoded() []Decoded { return p.ops }

// TempsUsed returns the number of temporary registers the program
// needs per shader input; it limits how many threads a shader unit
// can keep in flight (§2.3 register pool admission).
func (p *Program) TempsUsed() int { return p.temps }

// Inputs returns the bitmask of input attribute slots the program
// reads.
func (p *Program) Inputs() uint32 { return p.inputs }

// Outputs returns the bitmask of output attribute slots the program
// writes.
func (p *Program) Outputs() uint32 { return p.outputs }

// Samplers returns the bitmask of texture image units referenced.
func (p *Program) Samplers() uint32 { return p.samplers }

// HasKill reports whether the program may discard fragments.
func (p *Program) HasKill() bool { return p.hasKill }

// UsesTextures reports whether the program issues texture requests.
func (p *Program) UsesTextures() bool { return p.samplers != 0 }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instr) }

// Disassemble produces canonical assembly text that Assemble parses
// back into an identical program.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "!!ATTILA%cp\n", map[ProgramKind]byte{VertexProgram: 'v', FragmentProgram: 'f'}[p.Kind])
	for _, in := range p.Instr {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Standard attribute slot assignments shared by the GL layer, the
// streamer and the interpolator. Vertex inputs, vertex outputs and
// fragment inputs use the same numbering so vertex output slot i
// interpolates into fragment input slot i.
const (
	AttrPos    = 0 // vertex position / fragment window position
	AttrColor  = 1 // primary color
	AttrNormal = 2 // vertex normal (vertex programs only)
	AttrFog    = 3 // fog coordinate / distance
	AttrTex0   = 4 // first of 8 texture coordinate slots
	NumTexAttr = 8
)

// Fragment output slots.
const (
	FragOutColor = 0
	FragOutDepth = 1
)
