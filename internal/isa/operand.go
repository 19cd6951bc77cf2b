package isa

import (
	"fmt"
	"strings"
)

// Bank identifies one of the four ARB register banks (§2.3): input
// attributes (read only), output attributes (write only), temporaries
// (read/write) and constants (read only).
type Bank uint8

// Register banks.
const (
	BankInput  Bank = iota // v[n]
	BankOutput             // o[n]
	BankTemp               // r[n]
	BankConst              // c[n]
)

func (b Bank) letter() byte {
	switch b {
	case BankInput:
		return 'v'
	case BankOutput:
		return 'o'
	case BankTemp:
		return 'r'
	case BankConst:
		return 'c'
	}
	return '?'
}

// Architectural limits, following the ARB program extensions: up to
// 32 temporaries (the paper notes real programs use 2–8), 16 input
// and output attribute slots and 96 constants.
const (
	MaxTemps   = 32
	MaxInputs  = 16
	MaxOutputs = 16
	MaxConsts  = 96
)

// Limit returns the number of registers in the bank.
func (b Bank) Limit() int {
	switch b {
	case BankInput:
		return MaxInputs
	case BankOutput:
		return MaxOutputs
	case BankTemp:
		return MaxTemps
	case BankConst:
		return MaxConsts
	}
	return 0
}

// Swizzle selects, per destination component, which source component
// to read: two bits per component, component i reads source component
// (s >> (2*i)) & 3, with x as bit pair 0.
type Swizzle uint8

// SwizzleXYZW is the identity swizzle.
const SwizzleXYZW Swizzle = 0xE4 // w=11 z=10 y=01 x=00

// Comp returns the source component selected for destination
// component i (0..3).
func (s Swizzle) Comp(i int) int { return int(s>>(2*i)) & 3 }

// MakeSwizzle builds a swizzle from the four selected components.
func MakeSwizzle(x, y, z, w int) Swizzle {
	return Swizzle(x&3 | (y&3)<<2 | (z&3)<<4 | (w&3)<<6)
}

// Broadcast returns the swizzle replicating component c to all lanes.
func Broadcast(c int) Swizzle { return MakeSwizzle(c, c, c, c) }

var compNames = [4]byte{'x', 'y', 'z', 'w'}

// String returns the assembly spelling, e.g. ".wzyx"; the identity
// swizzle prints as the empty string.
func (s Swizzle) String() string {
	if s == SwizzleXYZW {
		return ""
	}
	b := [5]byte{'.'}
	for i := 0; i < 4; i++ {
		b[i+1] = compNames[s.Comp(i)]
	}
	// Collapse broadcast swizzles (.xxxx -> .x) like ARB syntax.
	if b[1] == b[2] && b[2] == b[3] && b[3] == b[4] {
		return string(b[:2])
	}
	return string(b[:])
}

// WriteMask selects which destination components an instruction
// writes: bit i set means component i is written.
type WriteMask uint8

// MaskXYZW writes all four components.
const MaskXYZW WriteMask = 0xF

// Has reports whether component i is written.
func (m WriteMask) Has(i int) bool { return m&(1<<i) != 0 }

// String returns the assembly spelling, e.g. ".xyz"; the full mask
// prints as the empty string.
func (m WriteMask) String() string {
	if m == MaskXYZW {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('.')
	for i := 0; i < 4; i++ {
		if m.Has(i) {
			sb.WriteByte(compNames[i])
		}
	}
	return sb.String()
}

// SrcOperand is a source register reference with swizzle and
// negation.
type SrcOperand struct {
	Bank    Bank
	Index   uint8
	Swizzle Swizzle
	Negate  bool
}

// Src builds a plain source operand.
func Src(bank Bank, index int) SrcOperand {
	return SrcOperand{Bank: bank, Index: uint8(index), Swizzle: SwizzleXYZW}
}

// Swz returns a copy of the operand with the given swizzle.
func (s SrcOperand) Swz(sw Swizzle) SrcOperand { s.Swizzle = sw; return s }

// Neg returns a negated copy of the operand.
func (s SrcOperand) Neg() SrcOperand { s.Negate = !s.Negate; return s }

// String returns the assembly spelling, e.g. "-c5.wzyx".
func (s SrcOperand) String() string {
	neg := ""
	if s.Negate {
		neg = "-"
	}
	return fmt.Sprintf("%s%c%d%s", neg, s.Bank.letter(), s.Index, s.Swizzle)
}

// DstOperand is a destination register reference with write mask.
type DstOperand struct {
	Bank  Bank // BankTemp or BankOutput
	Index uint8
	Mask  WriteMask
}

// Dst builds a full-mask destination operand.
func Dst(bank Bank, index int) DstOperand {
	return DstOperand{Bank: bank, Index: uint8(index), Mask: MaskXYZW}
}

// String returns the assembly spelling, e.g. "r0.xyz".
func (d DstOperand) String() string {
	return fmt.Sprintf("%c%d%s", d.Bank.letter(), d.Index, d.Mask)
}
