package isa

// Decoded is one instruction resolved for execution: everything the
// shader emulator and the shader unit's scheduler would otherwise look
// up per issue or per lane (opcode properties, swizzle components, the
// scoreboard's register list) is worked out here, once per program.
type Decoded struct {
	Op       Opcode
	NSrc     uint8
	HasDst   bool
	Texture  bool
	Saturate bool
	Lat      LatClass
	Src      [3]DecodedSrc
	Dst      DstOperand
	Sampler  uint8
	Target   TexTarget

	// Deps[:NDeps] are the temporaries the scoreboard must find
	// complete before the instruction may issue: the temp sources, then
	// the destination when it is a temp (write-after-write).
	Deps  [4]uint8
	NDeps uint8
}

// DecodedSrc is a source operand with its swizzle expanded to
// component indices.
type DecodedSrc struct {
	Bank   Bank
	Index  uint8
	Comp   [4]uint8 // source component read for each result component
	Negate bool
	Plain  bool // identity swizzle and no negate: the register as it is
}

func decode(instr []Instruction) []Decoded {
	ops := make([]Decoded, len(instr))
	for i, in := range instr {
		info := in.Op.Info()
		op := &ops[i]
		*op = Decoded{
			Op: in.Op, NSrc: uint8(info.NSrc), HasDst: info.HasDst, Texture: info.Texture,
			Saturate: in.Saturate, Lat: info.LatencyClass, Dst: in.Dst,
			Sampler: in.Sampler, Target: in.Target,
		}
		dep := func(r uint8) {
			op.Deps[op.NDeps] = r
			op.NDeps++
		}
		for s := 0; s < info.NSrc; s++ {
			src := in.Src[s]
			d := &op.Src[s]
			*d = DecodedSrc{
				Bank: src.Bank, Index: src.Index, Negate: src.Negate,
				Plain: src.Swizzle == SwizzleXYZW && !src.Negate,
			}
			for c := range d.Comp {
				d.Comp[c] = uint8(src.Swizzle.Comp(c))
			}
			if src.Bank == BankTemp {
				dep(src.Index)
			}
		}
		if info.HasDst && in.Dst.Bank == BankTemp {
			dep(in.Dst.Index)
		}
	}
	return ops
}
