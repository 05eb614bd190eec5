package insn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// goldenWords pins encodings against well-known A64 words (as emitted
// by binutils/LLVM for the same assembly), at least one for every op.
var goldenWords = []struct {
	name string
	i    Instr
	want uint32
}{
	{"nop", NOP(), 0xD503201F},
	{"isb", ISB(), 0xD5033FDF},
	{"ret", RET(), 0xD65F03C0},
	{"eret", ERET(), 0xD69F03E0},
	{"svc #0", SVC(0), 0xD4000001},
	{"hlt #0", HLT(0), 0xD4400000},
	{"movz x0, #1", MOVZ(X0, 1, 0), 0xD2800020},
	{"movz w0, #1", MOVZW(X0, 1, 0), 0x52800020},
	{"movk x0, #2, lsl #16", MOVK(X0, 2, 16), 0xF2A00040},
	{"movn x0, #37", MOVN(X0, 37, 0), 0x928004A0},
	{"adr x16, #-64", ADR(IP0, -64), 0x10FFFE10},
	{"adrp x0, #4096", ADRP(X0, 1), 0xB0000000},
	{"mov x0, x1", MOVr(X0, X1), 0xAA0103E0},
	{"add x0, x0, #1", ADDi(X0, X0, 1), 0x91000400},
	{"sub sp, sp, #16", SUBi(SP, SP, 16), 0xD10043FF},
	{"bfi x16, x17, #32, #32", BFI(IP0, IP1, 32, 32), 0xB3607E30},
	{"lsr x21, x20, #26", LSRi(X21, X20, 26), 0xD35AFE95},
	{"sxtw x0, w1", Instr{Op: OpSBFM, Rd: X0, Rn: X1, Rm: XZR, Ra: XZR, ImmS: 31, SF: true}, 0x93407C20},
	{"add x0, x1, x2", ADDr(X0, X1, X2), 0x8B020020},
	{"sub x0, x1, x2", SUBr(X0, X1, X2), 0xCB020020},
	{"cmp x0, x1", CMP(X0, X1), 0xEB01001F},
	{"and x0, x1, x2", ANDr(X0, X1, X2), 0x8A020020},
	{"eor x0, x1, x2", EORr(X0, X1, X2), 0xCA020020},
	{"tst x0, x1", ANDSr(XZR, X0, X1), 0xEA01001F},
	{"mul x0, x1, x2", MUL(X0, X1, X2), 0x9B027C20},
	{"udiv x0, x1, x2", UDIV(X0, X1, X2), 0x9AC20820},
	{"lsl x0, x1, x2", LSLV(X0, X1, X2), 0x9AC22020},
	{"lsr x0, x1, x2", LSRV(X0, X1, X2), 0x9AC22420},
	{"csel x0, x1, x2, eq", CSEL(X0, X1, X2, EQ), 0x9A820020},
	{"ldr x1, [x2, #16]", LDR(X1, X2, 16), 0xF9400841},
	{"str x1, [x2, #16]", STR(X1, X2, 16), 0xF9000841},
	{"ldr w1, [x2, #4]", LDRW(X1, X2, 4), 0xB9400441},
	{"str w1, [x2, #4]", STRW(X1, X2, 4), 0xB9000441},
	{"ldrb w1, [x2, #1]", LDRB(X1, X2, 1), 0x39400441},
	{"strb w1, [x2, #1]", STRB(X1, X2, 1), 0x39000441},
	{"ldr x0, [sp], #16", LDRpost(X0, SP, 16), 0xF84107E0},
	{"str x0, [sp, #-16]!", STRpre(X0, SP, -16), 0xF81F0FE0},
	{"ldp x0, x1, [sp, #16]", LDP(X0, X1, SP, 16), 0xA94107E0},
	{"stp x0, x1, [sp, #16]", STP(X0, X1, SP, 16), 0xA90107E0},
	{"stp x29, x30, [sp, #-16]!", STPpre(FP, LR, SP, -16), 0xA9BF7BFD},
	{"ldp x29, x30, [sp], #16", LDPpost(FP, LR, SP, 16), 0xA8C17BFD},
	{"b #4", B(4), 0x14000001},
	{"bl #0", BL(0), 0x94000000},
	{"b.eq #8", Bcond(EQ, 8), 0x54000040},
	{"cbz x0, #0", CBZ(X0, 0), 0xB4000000},
	{"cbnz x5, #-8", CBNZ(X5, -8), 0xB5FFFFC5},
	{"br x3", BR(X3), 0xD61F0060},
	{"blr x3", BLR(X3), 0xD63F0060},
	{"pacia x17, x16", PACIA(X17, X16), 0xDAC10211},
	{"pacib x30, x16", PACIB(LR, IP0), 0xDAC1061E},
	{"pacda x0, x1", PACDA(X0, X1), 0xDAC10820},
	{"pacdb x0, x1", PACDB(X0, X1), 0xDAC10C20},
	{"autia x17, x16", AUTIA(X17, X16), 0xDAC11211},
	{"autib x30, x16", AUTIB(LR, IP0), 0xDAC1161E},
	{"autda x0, x1", AUTDA(X0, X1), 0xDAC11820},
	{"autdb x0, x1", AUTDB(X0, X1), 0xDAC11C20},
	{"paciza x0", PACIZA(X0), 0xDAC123E0},
	{"pacizb x1", PACIZB(X1), 0xDAC127E1},
	{"pacdza x2", PACDZA(X2), 0xDAC12BE2},
	{"pacdzb x3", PACDZB(X3), 0xDAC12FE3},
	{"autiza x4", AUTIZA(X4), 0xDAC133E4},
	{"autizb x5", AUTIZB(X5), 0xDAC137E5},
	{"autdza x6", AUTDZA(X6), 0xDAC13BE6},
	{"autdzb x7", AUTDZB(X7), 0xDAC13FE7},
	{"xpaci x5", XPACI(X5), 0xDAC143E5},
	{"xpacd x5", XPACD(X5), 0xDAC147E5},
	{"pacga x1, x2, x3", PACGA(X1, X2, X3), 0x9AC33041},
	{"retaa", RETAA(), 0xD65F0BFF},
	{"retab", RETAB(), 0xD65F0FFF},
	{"blraa x1, x2", BLRAA(X1, X2), 0xD73F0822},
	{"blrab x1, x2", BLRAB(X1, X2), 0xD73F0C22},
	{"braa x1, x2", BRAA(X1, X2), 0xD71F0822},
	{"brab x1, x2", BRAB(X1, X2), 0xD71F0C22},
	{"pacia1716", PACIA1716(), 0xD503211F},
	{"pacib1716", PACIB1716(), 0xD503215F},
	{"autia1716", AUTIA1716(), 0xD503219F},
	{"autib1716", AUTIB1716(), 0xD50321DF},
	{"msr sctlr_el1, x0", MSR(SCTLR_EL1, X0), 0xD5181000},
	{"mrs x0, sctlr_el1", MRS(X0, SCTLR_EL1), 0xD5381000},
	{"mrs x1, apiakeylo_el1", MRS(X1, APIAKeyLo_EL1), 0xD5382101},
	{"msr apibkeyhi_el1, x2", MSR(APIBKeyHi_EL1, X2), 0xD5182162},
}

// Reserved bitfield words: SBFM with N ≠ sf is unallocated in A64.
const (
	reservedSBFM32 = 0x13410000 // sf=0, N=1
	reservedSBFM64 = 0x93000000 // sf=1, N=0
)

func TestGoldenWords(t *testing.T) {
	pinned := make(map[Op]bool)
	for _, c := range goldenWords {
		if got := c.i.Encode(); got != c.want {
			t.Errorf("%s: Encode = %#08x, want %#08x", c.name, got, c.want)
		}
		if back := Decode(c.want); back != c.i {
			t.Errorf("%s: Decode(%#08x) = %+v, want %+v", c.name, c.want, back, c.i)
		}
		pinned[c.i.Op] = true
	}
	for op := OpInvalid + 1; op < NumOps; op++ {
		if !pinned[op] {
			t.Errorf("no golden word for %v (op %d)", op, op)
		}
	}
}

// TestZFormGoldenWords pins the zero-modifier PAuth encodings and the
// mnemonics their rows print.
func TestZFormGoldenWords(t *testing.T) {
	cases := []struct {
		i    Instr
		want uint32
		name string
	}{
		{PACIZA(X0), 0xDAC123E0, "paciza"},
		{PACIZB(X1), 0xDAC127E1, "pacizb"},
		{PACDZA(X2), 0xDAC12BE2, "pacdza"},
		{PACDZB(X3), 0xDAC12FE3, "pacdzb"},
		{AUTIZA(X4), 0xDAC133E4, "autiza"},
		{AUTIZB(X5), 0xDAC137E5, "autizb"},
		{AUTDZA(X6), 0xDAC13BE6, "autdza"},
		{AUTDZB(X7), 0xDAC13FE7, "autdzb"},
	}
	for _, c := range cases {
		if got := c.i.Encode(); got != c.want {
			t.Errorf("%s: Encode = %#08x, want %#08x", c.i, got, c.want)
		}
		if back := Decode(c.want); back != c.i {
			t.Errorf("%s: Decode(%#08x) = %+v", c.i, c.want, back)
		}
		if got := c.i.Op.String(); got != c.name {
			t.Errorf("%s: Op.String = %q, want %q", c.i, got, c.name)
		}
	}
}

// TestEncodingsDisjoint: every row fixes only bits under its mask, and
// every pair of rows differs in a bit both masks fix, so no word
// matches two rows and Decode's first match is its only one.
func TestEncodingsDisjoint(t *testing.T) {
	for a := OpInvalid + 1; a < NumOps; a++ {
		ea := encodings[a]
		if ea.name == "" || ea.mask == 0 || ea.bits&^ea.mask != 0 {
			t.Errorf("op %d: bad row %+v", a, ea)
		}
		for b := a + 1; b < NumOps; b++ {
			eb := encodings[b]
			if (ea.bits^eb.bits)&ea.mask&eb.mask == 0 {
				t.Errorf("rows %v (op %d) and %v (op %d) overlap", a, a, b, b)
			}
		}
	}
}

// randInstr builds a random valid instruction using the public builders.
func randInstr(r *rand.Rand) Instr {
	reg := func() Reg { return Reg(r.Intn(31)) } // avoid 31 ambiguity in random tests
	off19 := func() int64 { return int64(r.Intn(1<<18)-1<<17) * 4 }
	switch r.Intn(40) {
	case 0:
		return MOVZ(reg(), uint16(r.Uint32()), uint8(r.Intn(4))*16)
	case 1:
		return MOVK(reg(), uint16(r.Uint32()), uint8(r.Intn(4))*16)
	case 2:
		return MOVN(reg(), uint16(r.Uint32()), uint8(r.Intn(4))*16)
	case 3:
		return ADR(reg(), int64(r.Intn(1<<20)-1<<19))
	case 4:
		return ADDi(reg(), reg(), uint16(r.Intn(1<<12)))
	case 5:
		return SUBi(reg(), reg(), uint16(r.Intn(1<<12)))
	case 6:
		return BFI(reg(), reg(), uint8(r.Intn(32)), uint8(1+r.Intn(32)))
	case 7:
		return UBFX(reg(), reg(), uint8(r.Intn(32)), uint8(1+r.Intn(32)))
	case 8:
		return ADDr(reg(), reg(), reg())
	case 9:
		return SUBr(reg(), reg(), reg())
	case 10:
		return ANDr(reg(), reg(), reg())
	case 11:
		return ORRr(reg(), reg(), reg(), uint8(r.Intn(64)))
	case 12:
		return EORr(reg(), reg(), reg())
	case 13:
		return MADD(reg(), reg(), reg(), reg())
	case 14:
		return UDIV(reg(), reg(), reg())
	case 15:
		return LSLV(reg(), reg(), reg())
	case 16:
		return CSEL(reg(), reg(), reg(), Cond(r.Intn(16)))
	case 17:
		return LDR(reg(), reg(), uint16(r.Intn(4096))&^7)
	case 18:
		return STR(reg(), reg(), uint16(r.Intn(4096))&^7)
	case 19:
		return LDRW(reg(), reg(), uint16(r.Intn(4096))&^3)
	case 20:
		return STRB(reg(), reg(), uint16(r.Intn(4096)))
	case 21:
		return LDRpost(reg(), reg(), int16(r.Intn(512)-256))
	case 22:
		return STRpre(reg(), reg(), int16(r.Intn(512)-256))
	case 23:
		return LDP(reg(), reg(), reg(), int16(r.Intn(128)-64)*8)
	case 24:
		return STP(reg(), reg(), reg(), int16(r.Intn(128)-64)*8)
	case 25:
		return LDPpost(reg(), reg(), reg(), int16(r.Intn(128)-64)*8)
	case 26:
		return STPpre(reg(), reg(), reg(), int16(r.Intn(128)-64)*8)
	case 27:
		return B(int64(r.Intn(1<<20)-1<<19) * 4)
	case 28:
		return BL(int64(r.Intn(1<<20)-1<<19) * 4)
	case 29:
		return Bcond(Cond(r.Intn(16)), off19())
	case 30:
		return CBZ(reg(), off19())
	case 31:
		return CBNZ(reg(), off19())
	case 32:
		return BR(reg())
	case 33:
		return BLR(reg())
	case 34:
		ops := []func(Reg, Reg) Instr{PACIA, PACIB, PACDA, PACDB, AUTIA, AUTIB, AUTDA, AUTDB}
		return ops[r.Intn(len(ops))](reg(), reg())
	case 35:
		return PACGA(reg(), reg(), reg())
	case 36:
		regs := []SysReg{SCTLR_EL1, APIAKeyLo_EL1, APIBKeyHi_EL1, APDBKeyLo_EL1,
			ELR_EL1, SPSR_EL1, VBAR_EL1, ESR_EL1, FAR_EL1, CONTEXTIDR_EL1, PMCCNTR_EL0}
		return MSR(regs[r.Intn(len(regs))], reg())
	case 37:
		regs := []SysReg{SCTLR_EL1, APGAKeyHi_EL1, TTBR1_EL1, CNTVCT_EL0, SP_EL0}
		return MRS(reg(), regs[r.Intn(len(regs))])
	case 38:
		return SVC(uint16(r.Uint32()))
	default:
		hints := []Instr{NOP(), ISB(), ERET(), RET(), RETAA(), RETAB(),
			PACIA1716(), PACIB1716(), AUTIA1716(), AUTIB1716(),
			BLRAA(reg(), reg()), BLRAB(reg(), reg()), BRAA(reg(), reg()), BRAB(reg(), reg()),
			PACIZA(reg()), PACIZB(reg()), PACDZA(reg()), PACDZB(reg()),
			AUTIZA(reg()), AUTIZB(reg()), AUTDZA(reg()), AUTDZB(reg()),
			XPACI(reg()), XPACD(reg()), HLT(uint16(r.Uint32()))}
		return hints[r.Intn(len(hints))]
	}
}

// TestEncodeDecodeRoundTrip is the core property: every builder-produced
// instruction survives Encode → Decode unchanged.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		i := randInstr(r)
		w := i.Encode()
		back := Decode(w)
		if back != i {
			t.Fatalf("round trip failed:\n  in:  %+v (%s)\n  word %#08x\n  out: %+v (%s)",
				i, i, w, back, back)
		}
	}
}

// TestDecodeNeverPanics feeds random words through the decoder (the §4.1
// scanner runs over arbitrary module bytes, so decode must be total).
func TestDecodeNeverPanics(t *testing.T) {
	f := func(w uint32) bool {
		_ = Decode(w)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode holds Decode to Encode: Decode never panics, rejects a word
// with the zero Instr, and every word it accepts re-encodes to itself,
// so Decode accepts exactly the words Encode produces.
func FuzzDecode(f *testing.F) {
	for _, c := range goldenWords {
		f.Add(c.want)
	}
	f.Add(uint32(reservedSBFM32))
	f.Add(uint32(reservedSBFM64))
	f.Fuzz(func(t *testing.T, w uint32) {
		i := Decode(w)
		if i.Op == OpInvalid {
			if i != (Instr{}) {
				t.Fatalf("Decode(%#08x) = %+v, want the zero Instr", w, i)
			}
			return
		}
		if got := i.Encode(); got != w {
			t.Fatalf("Decode(%#08x) = %s re-encodes to %#08x", w, i, got)
		}
	})
}

func TestMOVImm64(t *testing.T) {
	cases := []uint64{0, 1, 0xFFFF, 0x10000, 0xDEADBEEF, 0xFFFF_FFFF_FFFF_FFFF,
		0x0123_4567_89AB_CDEF, 0x8000_0000_0000_0000, 0x0000_FFFF_0000_0001}
	for _, v := range cases {
		seq := MOVImm64(X7, v)
		if len(seq) == 0 || len(seq) > 4 {
			t.Fatalf("MOVImm64(%#x): %d instructions", v, len(seq))
		}
		// Emulate the sequence.
		var got uint64
		for idx, ins := range seq {
			imm := uint64(uint16(ins.Imm)) << ins.Shift
			switch ins.Op {
			case OpMOVZ:
				if idx != 0 {
					t.Fatalf("MOVZ not first in sequence for %#x", v)
				}
				got = imm
			case OpMOVK:
				got = got&^(uint64(0xFFFF)<<ins.Shift) | imm
			default:
				t.Fatalf("unexpected op %v in MOVImm64 sequence", ins.Op)
			}
		}
		if got != v {
			t.Fatalf("MOVImm64(%#x) materialises %#x", v, got)
		}
	}
}

func TestMOVImm64Property(t *testing.T) {
	f := func(v uint64) bool {
		var got uint64
		for _, ins := range MOVImm64(X0, v) {
			imm := uint64(uint16(ins.Imm)) << ins.Shift
			if ins.Op == OpMOVZ {
				got = imm
			} else {
				got = got&^(uint64(0xFFFF)<<ins.Shift) | imm
			}
		}
		return got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSysRegPredicates(t *testing.T) {
	for _, k := range PAuthKeyRegs {
		if !k.IsPAuthKey() {
			t.Errorf("%s not recognised as PAuth key register", k)
		}
	}
	for _, nk := range []SysReg{SCTLR_EL1, ELR_EL1, CONTEXTIDR_EL1} {
		if nk.IsPAuthKey() {
			t.Errorf("%s misclassified as PAuth key register", nk)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpB.IsBranch() || !OpRETAA.IsBranch() || !OpERET.IsBranch() {
		t.Error("branch ops not classified as branches")
	}
	if OpMOVZ.IsBranch() {
		t.Error("MOVZ classified as branch")
	}
}

func TestDisasmSmoke(t *testing.T) {
	// Listing 3 prologue, as the paper prints it.
	seq := []Instr{
		ADR(IP0, -64),
		MOVSP(IP1, SP),
		BFI(IP0, IP1, 32, 32),
		PACIB(LR, IP0),
		STPpre(FP, LR, SP, -16),
	}
	for _, i := range seq {
		if s := i.String(); s == "" || s == "<invalid>" {
			t.Errorf("bad disassembly for %+v: %q", i, s)
		}
	}
	if got := RET().String(); got != "ret x30" {
		t.Errorf("RET disasm = %q", got)
	}
	if got := MSR(APIAKeyLo_EL1, X0).String(); got != "msr APIAKeyLo_EL1, x0" {
		t.Errorf("MSR disasm = %q", got)
	}
}

func TestRegString(t *testing.T) {
	if X0.String() != "x0" || X30.String() != "x30" {
		t.Error("register names wrong")
	}
	if !SP.Valid() || Reg(32).Valid() {
		t.Error("Valid() wrong")
	}
}

func TestEncodePanicsOnBadOperands(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad move shift", func() { MOVZ(X0, 1, 7).Encode() })
	mustPanic("branch misaligned", func() { B(2).Encode() })
	mustPanic("branch out of range", func() { Bcond(EQ, 1<<30).Encode() })
	mustPanic("ldr offset unscaled", func() { LDR(X0, X1, 9).Encode() })
	mustPanic("stp offset out of range", func() { STP(X0, X1, SP, 1024).Encode() })
	mustPanic("adr out of range", func() { ADR(X0, 1<<21).Encode() })
	mustPanic("msr op0 below 2", func() { MSR(SysReg(0), X0).Encode() })
}

// TestDisasmTotal: every encodable op produces a non-empty, non-invalid
// disassembly string (the §4.1 scanner logs disassembly for rejections,
// so String must be total over the subset).
func TestDisasmTotal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for n := 0; n < 5000; n++ {
		i := randInstr(r)
		s := i.String()
		if s == "" || s == "<invalid>" || s == "op?" {
			t.Fatalf("bad disassembly for %+v: %q", i, s)
		}
	}
}
