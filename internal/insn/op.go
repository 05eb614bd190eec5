package insn

// Op identifies an instruction mnemonic in the supported A64 subset.
type Op uint8

const (
	// OpInvalid is the zero Op; decoding an unknown word yields it.
	OpInvalid Op = iota

	// Data processing — immediate.
	OpMOVZ // move wide with zero
	OpMOVK // move wide, keep
	OpMOVN // move wide, NOT
	OpADR  // PC-relative address
	OpADRP // PC-relative page address
	OpADDi // add immediate (Rn/Rd may be SP)
	OpSUBi // subtract immediate (Rn/Rd may be SP)
	OpBFM  // bitfield move (BFI/BFXIL aliases)
	OpUBFM // unsigned bitfield move (LSL/LSR/UBFX aliases)
	OpSBFM // signed bitfield move

	// Data processing — register.
	OpADDr  // add shifted register
	OpSUBr  // subtract shifted register
	OpSUBSr // subtract shifted register, set flags (CMP alias)
	OpANDr  // bitwise AND
	OpORRr  // bitwise OR (MOV register alias)
	OpEORr  // bitwise exclusive OR
	OpANDSr // bitwise AND, set flags (TST alias)
	OpMADD  // multiply-add (MUL alias)
	OpUDIV  // unsigned divide
	OpLSLV  // logical shift left by register
	OpLSRV  // logical shift right by register
	OpCSEL  // conditional select

	// Loads and stores.
	OpLDR     // load 64-bit, unsigned scaled offset
	OpSTR     // store 64-bit, unsigned scaled offset
	OpLDRW    // load 32-bit, unsigned scaled offset
	OpSTRW    // store 32-bit, unsigned scaled offset
	OpLDRB    // load byte
	OpSTRB    // store byte
	OpLDRpost // load 64-bit, post-index
	OpSTRpre  // store 64-bit, pre-index
	OpLDP     // load pair, signed offset
	OpSTP     // store pair, signed offset
	OpLDPpost // load pair, post-index
	OpSTPpre  // store pair, pre-index

	// Branches.
	OpB     // unconditional branch
	OpBL    // branch with link
	OpBcond // conditional branch
	OpCBZ   // compare and branch if zero
	OpCBNZ  // compare and branch if non-zero
	OpBR    // branch to register
	OpBLR   // branch with link to register
	OpRET   // return

	// ARMv8.3-A pointer authentication.
	OpPACIA // sign instruction pointer, key IA
	OpPACIB
	OpPACDA // sign data pointer, key DA
	OpPACDB
	OpAUTIA // authenticate instruction pointer, key IA
	OpAUTIB
	OpAUTDA
	OpAUTDB
	OpPACIZA // sign with zero modifier (the Apple-vtable form, §7)
	OpPACIZB
	OpPACDZA
	OpPACDZB
	OpAUTIZA
	OpAUTIZB
	OpAUTDZA
	OpAUTDZB
	OpXPACI     // strip PAC from instruction pointer
	OpXPACD     // strip PAC from data pointer
	OpPACGA     // generic MAC
	OpBLRAA     // authenticated branch with link, key IA
	OpBLRAB     // authenticated branch with link, key IB
	OpBRAA      // authenticated branch, key IA
	OpBRAB      // authenticated branch, key IB
	OpRETAA     // authenticated return, key IA
	OpRETAB     // authenticated return, key IB
	OpPACIA1716 // NOP-space PACIA x17, x16 (backwards compatible)
	OpPACIB1716
	OpAUTIA1716
	OpAUTIB1716

	// System.
	OpMSR  // write system register
	OpMRS  // read system register
	OpSVC  // supervisor call
	OpERET // exception return
	OpNOP
	OpISB // instruction synchronisation barrier
	OpHLT // halt (simulator stop)

	// NumOps counts the ops above. Decode never yields an op from
	// NumOps up, so an executor may number its own internal ops there.
	NumOps
)

// String returns the mnemonic.
func (o Op) String() string {
	if o < NumOps {
		return encodings[o].name
	}
	return "op?"
}

// IsBranch reports whether the op redirects control flow.
func (o Op) IsBranch() bool {
	switch o {
	case OpB, OpBL, OpBcond, OpCBZ, OpCBNZ, OpBR, OpBLR, OpRET,
		OpBLRAA, OpBLRAB, OpBRAA, OpBRAB, OpRETAA, OpRETAB, OpERET:
		return true
	}
	return false
}

// Cond is an A64 condition code for B.cond and CSEL.
type Cond uint8

// Condition codes.
const (
	EQ Cond = iota
	NE
	CS
	CC
	MI
	PL
	VS
	VC
	HI
	LS
	GE
	LT
	GT
	LE
	AL
	NV
)

var condNames = [16]string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "al", "nv"}

// String returns the condition mnemonic suffix.
func (c Cond) String() string { return condNames[c&15] }
