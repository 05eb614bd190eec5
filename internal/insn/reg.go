// Package insn models the subset of the A64 instruction set used by the
// Camouflage reproduction: data-processing, loads/stores, branches, system
// instructions, and the ARMv8.3-A pointer-authentication instructions.
//
// Instructions are real 32-bit A64 words. One table of encodings
// (encoding.go) drives the encoder, the decoder and the mnemonics, and
// the decoder accepts exactly the words the encoder produces (FuzzDecode
// and property-based tests). Working at the encoding level is what makes
// the paper's execute-only-memory argument meaningful — the kernel PAuth
// keys are embedded as MOVZ/MOVK immediates inside the key-setter
// function, and extracting them requires *reading* the code words, which
// XOM forbids (§4.1, §5.1).
package insn

import "fmt"

// Reg is an AArch64 general-purpose register number. Numbers 0..30 are
// X0..X30; number 31 encodes either XZR (the zero register) or SP (the
// stack pointer) depending on the instruction class, exactly as in A64.
type Reg uint8

// Register aliases used throughout the kernel model.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29
	X30

	// XZR is the zero register (reads as zero, writes discarded) in
	// instruction classes that interpret register 31 that way.
	XZR Reg = 31
	// SP is the stack pointer in instruction classes that interpret
	// register 31 that way (ADD/SUB immediate, loads/stores).
	SP Reg = 31

	// FP is the frame pointer (x29) of the AAPCS64 frame record.
	FP = X29
	// LR is the link register (x30) holding function return addresses.
	LR = X30
	// IP0 and IP1 are the intra-procedure-call scratch registers used by
	// the Listing-3 prologue to build the PAuth modifier.
	IP0 = X16
	IP1 = X17
)

// NumRegs is the number of encodable register numbers.
const NumRegs = 32

// String returns the X-form register name; register 31 prints as "xzr|sp"
// because the interpretation depends on the instruction.
func (r Reg) String() string {
	switch {
	case r < 31:
		return fmt.Sprintf("x%d", uint8(r))
	case r == 31:
		return "xzr|sp"
	}
	return fmt.Sprintf("reg?%d", uint8(r))
}

// Valid reports whether the register number is encodable.
func (r Reg) Valid() bool { return r < NumRegs }
