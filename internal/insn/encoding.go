package insn

import "fmt"

// encoding is one row of the A64 encoding table: the op's mnemonic, the
// bits every word of the op has (bits, under mask) and the operand form
// that places the Instr fields in the bits the mask leaves free.
type encoding struct {
	name       string
	bits, mask uint32
	form       form
}

// encodings is the one statement of every supported encoding: Encode,
// Decode and Op.String all read it. No word matches two rows
// (TestEncodingsDisjoint), so Decode needs no ordering rule.
var encodings = [NumOps]encoding{
	OpInvalid: {name: "<invalid>"},

	// Data processing — immediate.
	OpMOVZ: {"movz", 0x52800000, 0x7F800000, fMoveWide},
	OpMOVK: {"movk", 0x72800000, 0x7F800000, fMoveWide},
	OpMOVN: {"movn", 0x12800000, 0x7F800000, fMoveWide},
	OpADR:  {"adr", 0x10000000, 0x9F000000, fADR},
	OpADRP: {"adrp", 0x90000000, 0x9F000000, fADR},
	OpADDi: {"add", 0x11000000, 0x7F800000, fAddImm},
	OpSUBi: {"sub", 0x51000000, 0x7F800000, fAddImm},
	OpBFM:  {"bfm", 0x33000000, 0x7F800000, fBitfield},
	OpUBFM: {"ubfm", 0x53000000, 0x7F800000, fBitfield},
	OpSBFM: {"sbfm", 0x13000000, 0x7F800000, fBitfield},

	// Data processing — register (LSL is the only shift type).
	OpADDr:  {"add", 0x0B000000, 0x7FE00000, fShiftReg},
	OpSUBr:  {"sub", 0x4B000000, 0x7FE00000, fShiftReg},
	OpSUBSr: {"subs", 0x6B000000, 0x7FE00000, fShiftReg},
	OpANDr:  {"and", 0x0A000000, 0x7FE00000, fShiftReg},
	OpORRr:  {"orr", 0x2A000000, 0x7FE00000, fShiftReg},
	OpEORr:  {"eor", 0x4A000000, 0x7FE00000, fShiftReg},
	OpANDSr: {"ands", 0x6A000000, 0x7FE00000, fShiftReg},
	OpMADD:  {"madd", 0x1B000000, 0x7FE08000, fMADD},
	OpUDIV:  {"udiv", 0x1AC00800, 0x7FE0FC00, fReg3},
	OpLSLV:  {"lslv", 0x1AC02000, 0x7FE0FC00, fReg3},
	OpLSRV:  {"lsrv", 0x1AC02400, 0x7FE0FC00, fReg3},
	OpCSEL:  {"csel", 0x1A800000, 0x7FE00C00, fCSEL},

	// Loads and stores.
	OpLDR:     {"ldr", 0xF9400000, 0xFFC00000, fLdStUImm},
	OpSTR:     {"str", 0xF9000000, 0xFFC00000, fLdStUImm},
	OpLDRW:    {"ldr(w)", 0xB9400000, 0xFFC00000, fLdStUImm},
	OpSTRW:    {"str(w)", 0xB9000000, 0xFFC00000, fLdStUImm},
	OpLDRB:    {"ldrb", 0x39400000, 0xFFC00000, fLdStUImm},
	OpSTRB:    {"strb", 0x39000000, 0xFFC00000, fLdStUImm},
	OpLDRpost: {"ldr(post)", 0xF8400400, 0xFFE00C00, fLdStIdx},
	OpSTRpre:  {"str(pre)", 0xF8000C00, 0xFFE00C00, fLdStIdx},
	OpLDP:     {"ldp", 0xA9400000, 0xFFC00000, fPair},
	OpSTP:     {"stp", 0xA9000000, 0xFFC00000, fPair},
	OpLDPpost: {"ldp(post)", 0xA8C00000, 0xFFC00000, fPair},
	OpSTPpre:  {"stp(pre)", 0xA9800000, 0xFFC00000, fPair},

	// Branches.
	OpB:     {"b", 0x14000000, 0xFC000000, fBranch26},
	OpBL:    {"bl", 0x94000000, 0xFC000000, fBranch26},
	OpBcond: {"b.cond", 0x54000000, 0xFF000010, fBcond},
	OpCBZ:   {"cbz", 0x34000000, 0x7F000000, fCB},
	OpCBNZ:  {"cbnz", 0x35000000, 0x7F000000, fCB},
	OpBR:    {"br", 0xD61F0000, 0xFFFFFC1F, fRn},
	OpBLR:   {"blr", 0xD63F0000, 0xFFFFFC1F, fRn},
	OpRET:   {"ret", 0xD65F0000, 0xFFFFFC1F, fRn},

	// ARMv8.3-A pointer authentication.
	OpPACIA:     {"pacia", 0xDAC10000, 0xFFFFFC00, fRdRn},
	OpPACIB:     {"pacib", 0xDAC10400, 0xFFFFFC00, fRdRn},
	OpPACDA:     {"pacda", 0xDAC10800, 0xFFFFFC00, fRdRn},
	OpPACDB:     {"pacdb", 0xDAC10C00, 0xFFFFFC00, fRdRn},
	OpAUTIA:     {"autia", 0xDAC11000, 0xFFFFFC00, fRdRn},
	OpAUTIB:     {"autib", 0xDAC11400, 0xFFFFFC00, fRdRn},
	OpAUTDA:     {"autda", 0xDAC11800, 0xFFFFFC00, fRdRn},
	OpAUTDB:     {"autdb", 0xDAC11C00, 0xFFFFFC00, fRdRn},
	OpPACIZA:    {"paciza", 0xDAC123E0, 0xFFFFFFE0, fRd},
	OpPACIZB:    {"pacizb", 0xDAC127E0, 0xFFFFFFE0, fRd},
	OpPACDZA:    {"pacdza", 0xDAC12BE0, 0xFFFFFFE0, fRd},
	OpPACDZB:    {"pacdzb", 0xDAC12FE0, 0xFFFFFFE0, fRd},
	OpAUTIZA:    {"autiza", 0xDAC133E0, 0xFFFFFFE0, fRd},
	OpAUTIZB:    {"autizb", 0xDAC137E0, 0xFFFFFFE0, fRd},
	OpAUTDZA:    {"autdza", 0xDAC13BE0, 0xFFFFFFE0, fRd},
	OpAUTDZB:    {"autdzb", 0xDAC13FE0, 0xFFFFFFE0, fRd},
	OpXPACI:     {"xpaci", 0xDAC143E0, 0xFFFFFFE0, fRd},
	OpXPACD:     {"xpacd", 0xDAC147E0, 0xFFFFFFE0, fRd},
	OpPACGA:     {"pacga", 0x9AC03000, 0xFFE0FC00, fReg3},
	OpBLRAA:     {"blraa", 0xD73F0800, 0xFFFFFC00, fRnRm},
	OpBLRAB:     {"blrab", 0xD73F0C00, 0xFFFFFC00, fRnRm},
	OpBRAA:      {"braa", 0xD71F0800, 0xFFFFFC00, fRnRm},
	OpBRAB:      {"brab", 0xD71F0C00, 0xFFFFFC00, fRnRm},
	OpRETAA:     {"retaa", 0xD65F0BFF, 0xFFFFFFFF, fRetKey},
	OpRETAB:     {"retab", 0xD65F0FFF, 0xFFFFFFFF, fRetKey},
	OpPACIA1716: {"pacia1716", 0xD503211F, 0xFFFFFFFF, fNone},
	OpPACIB1716: {"pacib1716", 0xD503215F, 0xFFFFFFFF, fNone},
	OpAUTIA1716: {"autia1716", 0xD503219F, 0xFFFFFFFF, fNone},
	OpAUTIB1716: {"autib1716", 0xD50321DF, 0xFFFFFFFF, fNone},

	// System.
	OpMSR:  {"msr", 0xD5100000, 0xFFF00000, fSys},
	OpMRS:  {"mrs", 0xD5300000, 0xFFF00000, fSys},
	OpSVC:  {"svc", 0xD4000001, 0xFFE0001F, fImm16},
	OpERET: {"eret", 0xD69F03E0, 0xFFFFFFFF, fNone},
	OpNOP:  {"nop", 0xD503201F, 0xFFFFFFFF, fNone},
	OpISB:  {"isb", 0xD5033FDF, 0xFFFFFFFF, fNone},
	OpHLT:  {"hlt", 0xD4400000, 0xFFE0001F, fImm16},
}

// form is an operand layout: where a row's Instr fields sit in its word.
// sf is bit 31 (Instr.SF); Rd/Rt, Rn and Rm are the 5-bit fields at 4:0,
// 9:5 and 20:16 unless noted.
type form uint8

const (
	fNone     form = iota // no operands
	fRetKey               // RETAA/RETAB: return to x30, modifier SP
	fImm16                // imm16 in 20:5
	fSys                  // Rt; system register in 20:5 (op0 ≥ 2)
	fRn                   // Rn
	fRnRm                 // Rn; modifier Rm in 4:0
	fRd                   // Rd
	fRdRn                 // Rd, Rn
	fReg3                 // sf, Rd, Rn, Rm
	fMoveWide             // sf, Rd; imm16 in 20:5 shifted by 16×hw (22:21)
	fADR                  // Rd; 21-bit offset, immhi 23:5 ∥ immlo 30:29
	fAddImm               // sf, Rd, Rn; imm12 in 21:10, LSL #12 if bit 22
	fBitfield             // sf, Rd, Rn; immr 21:16, imms 15:10; N (22) = sf
	fShiftReg             // sf, Rd, Rn, Rm; LSL amount in 15:10
	fMADD                 // sf, Rd, Rn, Rm; Ra in 14:10
	fCSEL                 // sf, Rd, Rn, Rm; cond in 15:12
	fLdStUImm             // Rt, Rn; imm12 in 21:10 scaled by the size in 31:30
	fLdStIdx              // Rt, Rn; simm9 in 20:12
	fPair                 // Rt, Rn; Rt2 in 14:10; simm7 in 21:15 scaled by 8
	fBranch26             // imm26 word offset
	fBcond                // imm19 word offset in 23:5; cond in 3:0
	fCB                   // sf, Rt; imm19 word offset in 23:5
)

// Decode decodes a 32-bit A64 word into an Instr. It accepts exactly the
// words Encode produces; every other word decodes to the zero Instr (Op
// OpInvalid). The CPU raises an undefined-instruction exception for
// those, and the §4.1 static analyser treats them as opaque data.
func Decode(w uint32) Instr {
	for op := OpInvalid + 1; op < NumOps; op++ {
		e := &encodings[op]
		if w&e.mask != e.bits {
			continue
		}
		i := Instr{Op: op, Rd: XZR, Rn: XZR, Rm: XZR, Ra: XZR, SF: true}
		if !e.decode(w, &i) {
			return Instr{}
		}
		return i
	}
	return Instr{}
}

// decode reads the row's operand fields of w into i, which holds the
// defaults (register 31, 64-bit). It reports false for a word the form
// leaves unallocated.
func (e *encoding) decode(w uint32, i *Instr) bool {
	rd, rn, rm := Reg(w&31), Reg(w>>5&31), Reg(w>>16&31)
	sf := w>>31 == 1
	switch e.form {
	case fRetKey:
		i.Rn = LR
	case fImm16:
		i.Imm = int64(w >> 5 & 0xFFFF)
	case fSys:
		i.Rd, i.Sys = rd, SysReg(w>>5)
	case fRn:
		i.Rn = rn
	case fRnRm:
		i.Rn, i.Rm = rn, rd
	case fRd:
		i.Rd = rd
	case fRdRn:
		i.Rd, i.Rn = rd, rn
	case fReg3:
		i.Rd, i.Rn, i.Rm, i.SF = rd, rn, rm, sf
	case fMoveWide:
		i.Rd, i.Imm, i.Shift, i.SF = rd, int64(w>>5&0xFFFF), uint8(w>>21&3)*16, sf
	case fADR:
		i.Rd, i.Imm = rd, signExtend(int64(w>>5&0x7FFFF)<<2|int64(w>>29&3), 21)
	case fAddImm:
		i.Rd, i.Rn, i.Imm, i.Shift, i.SF = rd, rn, int64(w>>10&0xFFF), uint8(w>>22&1)*12, sf
	case fBitfield:
		if w>>22&1 != w>>31 {
			return false // N ≠ sf is unallocated
		}
		i.Rd, i.Rn, i.ImmR, i.ImmS, i.SF = rd, rn, uint8(w>>16&63), uint8(w>>10&63), sf
	case fShiftReg:
		i.Rd, i.Rn, i.Rm, i.Shift, i.SF = rd, rn, rm, uint8(w>>10&63), sf
	case fMADD:
		i.Rd, i.Rn, i.Rm, i.Ra, i.SF = rd, rn, rm, Reg(w>>10&31), sf
	case fCSEL:
		i.Rd, i.Rn, i.Rm, i.Cond, i.SF = rd, rn, rm, Cond(w>>12&15), sf
	case fLdStUImm:
		size := w >> 30
		i.Rd, i.Rn, i.Imm, i.SF = rd, rn, int64(w>>10&0xFFF)<<size, size == 3
	case fLdStIdx:
		i.Rd, i.Rn, i.Imm = rd, rn, signExtend(int64(w>>12&0x1FF), 9)
	case fPair:
		i.Rd, i.Rn, i.Rm, i.Imm = rd, rn, Reg(w>>10&31), signExtend(int64(w>>15&0x7F), 7)*8
	case fBranch26:
		i.Imm = signExtend(int64(w&0x03FFFFFF), 26) * 4
	case fBcond:
		i.Cond, i.Imm = Cond(w&15), signExtend(int64(w>>5&0x7FFFF), 19)*4
	case fCB:
		i.Rd, i.Imm, i.SF = rd, signExtend(int64(w>>5&0x7FFFF), 19)*4, sf
	}
	return true
}

// Encode produces the 32-bit A64 instruction word: the op's row bits
// ORed with its form's fields. It panics on operands that do not fit
// their encoding fields; the assembler validates ranges before calling
// it.
func (i Instr) Encode() uint32 {
	if i.Op == OpInvalid || i.Op >= NumOps {
		panic(fmt.Sprintf("insn: cannot encode op %v", i.Op))
	}
	e := &encodings[i.Op]
	return e.bits | e.encode(i)
}

// encode places i's operands where the row's form puts them.
func (e *encoding) encode(i Instr) uint32 {
	rd, rn, rm := uint32(i.Rd&31), uint32(i.Rn&31), uint32(i.Rm&31)
	sf := uint32(0)
	if i.SF {
		sf = 1 << 31
	}
	switch e.form {
	case fImm16:
		return uint32(uint16(i.Imm)) << 5
	case fSys:
		if i.Sys>>15 == 0 {
			panic(fmt.Sprintf("insn: %s of %v: op0 must be 2 or 3", e.name, i.Sys))
		}
		return uint32(i.Sys)<<5 | rd
	case fRn:
		return rn << 5
	case fRnRm:
		return rn<<5 | rm
	case fRd:
		return rd
	case fRdRn:
		return rn<<5 | rd
	case fReg3:
		return sf | rm<<16 | rn<<5 | rd
	case fMoveWide:
		if i.Shift%16 != 0 || i.Shift > 48 {
			panic(fmt.Sprintf("insn: bad move-wide shift %d", i.Shift))
		}
		return sf | uint32(i.Shift/16)<<21 | uint32(uint16(i.Imm))<<5 | rd
	case fADR:
		if i.Imm < -(1<<20) || i.Imm >= 1<<20 {
			panic(fmt.Sprintf("insn: ADR offset %d out of range", i.Imm))
		}
		u := uint32(i.Imm) & 0x1FFFFF
		return (u&3)<<29 | (u>>2)<<5 | rd
	case fAddImm:
		if i.Shift != 0 && i.Shift != 12 {
			panic("insn: ADDi/SUBi shift must be 0 or 12")
		}
		if i.Imm < 0 || i.Imm > 0xFFF {
			panic(fmt.Sprintf("insn: imm12 %d out of range", i.Imm))
		}
		return sf | uint32(i.Shift/12)<<22 | uint32(i.Imm)<<10 | rn<<5 | rd
	case fBitfield:
		return sf | sf>>9 | uint32(i.ImmR&63)<<16 | uint32(i.ImmS&63)<<10 | rn<<5 | rd
	case fShiftReg:
		return sf | rm<<16 | uint32(i.Shift&63)<<10 | rn<<5 | rd
	case fMADD:
		return sf | rm<<16 | uint32(i.Ra&31)<<10 | rn<<5 | rd
	case fCSEL:
		return sf | rm<<16 | uint32(i.Cond&15)<<12 | rn<<5 | rd
	case fLdStUImm:
		scale := int64(1) << (e.bits >> 30)
		if i.Imm < 0 || i.Imm > 0xFFF*scale || i.Imm%scale != 0 {
			panic(fmt.Sprintf("insn: %s offset %d invalid", e.name, i.Imm))
		}
		return uint32(i.Imm/scale)<<10 | rn<<5 | rd
	case fLdStIdx:
		if i.Imm < -256 || i.Imm > 255 {
			panic(fmt.Sprintf("insn: simm9 %d out of range", i.Imm))
		}
		return (uint32(i.Imm)&0x1FF)<<12 | rn<<5 | rd
	case fPair:
		if i.Imm%8 != 0 || i.Imm < -512 || i.Imm > 504 {
			panic(fmt.Sprintf("insn: LDP/STP offset %d invalid", i.Imm))
		}
		return (uint32(i.Imm/8)&0x7F)<<15 | rm<<10 | rn<<5 | rd
	case fBranch26:
		return brOff(i.Imm, 26)
	case fBcond:
		return brOff(i.Imm, 19)<<5 | uint32(i.Cond&15)
	case fCB:
		return sf | brOff(i.Imm, 19)<<5 | rd
	}
	return 0 // fNone, fRetKey
}

// brOff encodes a byte offset as a bits-wide signed word offset.
func brOff(byteOff int64, bits uint) uint32 {
	if byteOff%4 != 0 {
		panic(fmt.Sprintf("insn: branch offset %d not word aligned", byteOff))
	}
	w := byteOff / 4
	lim := int64(1) << (bits - 1)
	if w < -lim || w >= lim {
		panic(fmt.Sprintf("insn: branch offset %d out of range for imm%d", byteOff, bits))
	}
	return uint32(w) & (1<<bits - 1)
}

func signExtend(v int64, bits uint) int64 {
	shift := 64 - bits
	return v << shift >> shift
}
