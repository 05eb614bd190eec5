package cpu

import (
	"testing"

	"camouflage/internal/asm"
	"camouflage/internal/insn"
	"camouflage/internal/mmu"
	"camouflage/internal/pac"
)

const (
	textBase  = uint64(pac.KernelBase) | 0x0008_0000
	dataBase  = uint64(pac.KernelBase) | 0x0010_0000
	stackTop  = uint64(pac.KernelBase) | 0x0020_0000
	vbarBase  = uint64(pac.KernelBase) | 0x0030_0000
	userText  = uint64(0x0040_0000)
	userStack = uint64(0x0080_0000)
)

// load links the program at the standard test bases and loads it into RAM
// identity-style (PA = VA with the kernel prefix stripped is unnecessary:
// while the MMU is off, PA = VA and the sparse RAM accepts any address).
func load(t *testing.T, a *asm.Assembler, bases map[string]uint64) (*CPU, *asm.Image) {
	t.Helper()
	img, err := a.Link(bases)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	c.SCTLR = insn.SCTLRPAuthAll
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	return c, img
}

func run(t *testing.T, c *CPU, entry uint64, max uint64) Stop {
	t.Helper()
	c.PC = entry
	stop := c.Run(max)
	if stop.Kind == StopError {
		t.Fatalf("simulation error: %v", stop.Err)
	}
	return stop
}

func TestALULoop(t *testing.T) {
	a := asm.New()
	a.Label("start")
	a.I(insn.MOVZ(insn.X0, 0, 0))  // sum = 0
	a.I(insn.MOVZ(insn.X1, 10, 0)) // i = 10
	a.Label("loop")
	a.I(insn.ADDr(insn.X0, insn.X0, insn.X1))
	a.I(insn.SUBi(insn.X1, insn.X1, 1))
	a.CBNZ(insn.X1, "loop")
	a.I(insn.HLT(0))
	c, img := load(t, a, map[string]uint64{".text": textBase})
	stop := run(t, c, img.Symbols["start"], 1000)
	if stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 55 {
		t.Fatalf("sum = %d, want 55", c.X[0])
	}
}

func TestFunctionCallListing1(t *testing.T) {
	// The canonical AArch64 prologue/epilogue of Listing 1, including a
	// frame record on the stack.
	a := asm.New()
	a.Label("main")
	a.I(insn.MOVZ(insn.X0, 5, 0))
	a.BL("double")
	a.I(insn.HLT(0))
	a.Label("double")
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.MOVSP(insn.FP, insn.SP))
	a.I(insn.ADDr(insn.X0, insn.X0, insn.X0))
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	a.I(insn.RET())
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.SetSP(1, stackTop)
	stop := run(t, c, img.Symbols["main"], 1000)
	if stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 10 {
		t.Fatalf("result = %d, want 10", c.X[0])
	}
	if c.CurrentSP() != stackTop {
		t.Fatalf("SP = %#x, want %#x (unbalanced frame)", c.CurrentSP(), stackTop)
	}
}

// TestListing2SignAuth: the Clang-style SP-modifier prologue/epilogue
// authenticates correctly in the benign case.
func TestListing2SignAuth(t *testing.T) {
	a := asm.New()
	a.Label("main")
	a.BL("f")
	a.I(insn.HLT(0))
	a.Label("f")
	a.I(insn.PACIA(insn.LR, insn.SP))
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.MOVSP(insn.FP, insn.SP))
	a.I(insn.MOVZ(insn.X0, 42, 0))
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	a.I(insn.AUTIA(insn.LR, insn.SP))
	a.I(insn.RET())
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.SetSP(1, stackTop)
	c.Signer.SetKey(pac.KeyIA, pac.Key{Hi: 7, Lo: 9})
	stop := run(t, c, img.Symbols["main"], 1000)
	if stop.Kind != StopHLT || c.X[0] != 42 {
		t.Fatalf("stop=%+v x0=%d", stop, c.X[0])
	}
	if c.PACFailures != 0 {
		t.Fatalf("PACFailures = %d", c.PACFailures)
	}
}

// mapKernelFlat maps text/data/stack/vectors for MMU-on tests.
func mapKernelFlat(c *CPU) {
	c.MMU.Enabled = true
	for off := uint64(0); off < 0x40_0000; off += mmu.PageSize {
		va := uint64(pac.KernelBase) | off
		perm := mmu.KernelData
		if off >= 0x0008_0000 && off < 0x0010_0000 {
			perm = mmu.KernelText
		}
		if off >= 0x0030_0000 && off < 0x0031_0000 {
			perm = mmu.KernelText
		}
		c.MMU.TT1.Map(va, va, perm) // PA = VA (sparse RAM accepts it)
	}
}

// buildVectors emits a vector stub that records the exception and halts.
func buildVectors(a *asm.Assembler) {
	a.Section(".vectors")
	a.Label("vectors")
	// 0x200: sync from current EL.
	a.PadTo(0x200)
	a.I(insn.HLT(0xE1))
	a.PadTo(0x280)
	a.I(insn.HLT(0xE2)) // IRQ current
	a.PadTo(0x400)
	a.I(insn.HLT(0xE4)) // sync lower
	a.PadTo(0x480)
	a.I(insn.HLT(0xE5)) // IRQ lower
}

// TestROPDetected reproduces the paper's core backward-edge scenario: an
// attacker overwrites the saved LR in the frame record between prologue
// and epilogue; AUTIA poisons the pointer and the RET faults instead of
// executing the gadget.
func TestROPDetected(t *testing.T) {
	a := asm.New()
	a.Label("main")
	a.BL("victim")
	a.I(insn.HLT(0))
	a.Label("victim")
	a.I(insn.PACIA(insn.LR, insn.SP))
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.MOVSP(insn.FP, insn.SP))
	// --- vulnerability: overwrite the saved LR with the gadget address.
	a.MOVAddr(insn.X9, "gadget")
	a.I(insn.STR(insn.X9, insn.SP, 8)) // frame record slot of LR
	// --- epilogue
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	a.I(insn.AUTIA(insn.LR, insn.SP))
	a.I(insn.RET())
	a.Label("gadget")
	a.I(insn.MOVZ(insn.X7, 0xBAD, 0))
	a.I(insn.HLT(0x77))
	buildVectors(a)

	c, img := load(t, a, map[string]uint64{".text": textBase, ".vectors": vbarBase})
	mapKernelFlat(c)
	c.SetSP(1, stackTop)
	c.VBAR = img.Symbols["vectors"]
	c.Signer.SetKey(pac.KeyIA, pac.Key{Hi: 0xAA, Lo: 0xBB})

	stop := run(t, c, img.Symbols["main"], 10000)
	if stop.Kind != StopHLT || stop.Code != 0xE1 {
		t.Fatalf("stop = %+v, want HLT 0xE1 (sync abort at EL1)", stop)
	}
	if c.PACFailures != 1 {
		t.Fatalf("PACFailures = %d, want 1", c.PACFailures)
	}
	if c.X[7] == 0xBAD {
		t.Fatal("gadget executed: ROP not prevented")
	}
	// The faulting address must be the poisoned LR, i.e. non-canonical.
	if c.Signer.Config().IsCanonical(c.FAR) {
		t.Fatalf("FAR %#x canonical; expected poisoned pointer", c.FAR)
	}
	if FaultKindFromISS(c.ESR&0x1FFFFFF) != mmu.FaultAddressSize {
		t.Fatalf("ESR ISS = %#x, want address-size fault", c.ESR&0x1FFFFFF)
	}
}

// TestROPSucceedsWithoutPAuth is the control: with no instrumentation the
// same overwrite hijacks control flow.
func TestROPSucceedsWithoutPAuth(t *testing.T) {
	a := asm.New()
	a.Label("main")
	a.BL("victim")
	a.I(insn.HLT(0))
	a.Label("victim")
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.MOVSP(insn.FP, insn.SP))
	a.MOVAddr(insn.X9, "gadget")
	a.I(insn.STR(insn.X9, insn.SP, 8))
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	a.I(insn.RET())
	a.Label("gadget")
	a.I(insn.MOVZ(insn.X7, 0xBAD, 0))
	a.I(insn.HLT(0x77))
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.SetSP(1, stackTop)
	stop := run(t, c, img.Symbols["main"], 10000)
	if stop.Kind != StopHLT || stop.Code != 0x77 {
		t.Fatalf("stop = %+v, want gadget HLT 0x77", stop)
	}
	if c.X[7] != 0xBAD {
		t.Fatal("gadget did not run in unprotected build")
	}
}

// TestListing3CamouflagePrologue runs the paper's hardened prologue and
// epilogue (Listing 3) and checks the modifier construction in-guest.
func TestListing3CamouflagePrologue(t *testing.T) {
	a := asm.New()
	a.Label("main")
	a.BL("f")
	a.I(insn.HLT(0))
	a.Label("f")
	// Prologue (Listing 3).
	a.ADR(insn.IP0, "f")
	a.I(insn.MOVSP(insn.IP1, insn.SP))
	a.I(insn.BFI(insn.IP0, insn.IP1, 32, 32))
	a.I(insn.PACIB(insn.LR, insn.IP0))
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.MOVSP(insn.FP, insn.SP))
	a.I(insn.MOVZ(insn.X0, 99, 0))
	// Epilogue.
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	a.ADR(insn.IP0, "f")
	a.I(insn.MOVSP(insn.IP1, insn.SP))
	a.I(insn.BFI(insn.IP0, insn.IP1, 32, 32))
	a.I(insn.AUTIB(insn.LR, insn.IP0))
	a.I(insn.RET())
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.SetSP(1, stackTop)
	c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 0xC0FFEE, Lo: 0xF00D})
	stop := run(t, c, img.Symbols["main"], 1000)
	if stop.Kind != StopHLT || stop.Code != 0 {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 99 || c.PACFailures != 0 {
		t.Fatalf("x0=%d failures=%d", c.X[0], c.PACFailures)
	}
	// The modifier left in IP0 must match the documented construction.
	want := pac.ReturnModifierCamouflage(stackTop, img.Symbols["f"])
	if c.X[insn.IP0] != want {
		t.Fatalf("modifier = %#x, want %#x", c.X[insn.IP0], want)
	}
}

// TestSVCAndERET exercises the EL0→EL1→EL0 round trip with banked SPs.
func TestSVCAndERET(t *testing.T) {
	a := asm.New()
	a.Section(".user")
	a.Label("user")
	a.I(insn.MOVZ(insn.X8, 42, 0)) // syscall number
	a.I(insn.SVC(0))
	a.I(insn.HLT(0x11)) // resumes here after ERET
	buildVectors(a)

	// Replace the sync-lower stub with a real handler.
	a.Section(".handler")
	a.Label("handler")
	a.I(insn.MOVZ(insn.X0, 7, 0))
	a.I(insn.ERET())

	img, err := a.Link(map[string]uint64{
		".text":    textBase,
		".user":    userText,
		".vectors": vbarBase,
		".handler": vbarBase + 0x1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	// Patch the 0x400 vector to branch to the handler.
	b := insn.B(int64(img.Symbols["handler"]) - int64(img.Symbols["vectors"]+0x400)).Encode()
	c.Bus.RAM.Write32(img.Symbols["vectors"]+0x400, b)

	c.VBAR = img.Symbols["vectors"]
	c.EL = 0
	c.SetSP(0, userStack)
	c.SetSP(1, stackTop)
	c.PC = img.Symbols["user"]
	stop := c.Run(1000)
	if stop.Kind != StopHLT || stop.Code != 0x11 {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 7 {
		t.Fatalf("handler result x0 = %d", c.X[0])
	}
	if c.EL != 0 {
		t.Fatalf("EL after ERET = %d", c.EL)
	}
	if (c.ESR >> 26) != ECSVC64 {
		t.Fatalf("ESR EC = %#x, want SVC64", c.ESR>>26)
	}
}

// TestXOMKeySetter verifies the §5.1 flow end to end: a key-setter whose
// immediates hold the key, mapped XOM via stage 2. Executing it installs
// keys and zeroes its GPRs; reading it from EL1 faults.
func TestXOMKeySetter(t *testing.T) {
	key := pac.Key{Hi: 0x1122334455667788, Lo: 0x99AABBCCDDEEFF00}
	a := asm.New()
	a.Label("caller")
	a.BL("key_setter")
	a.I(insn.HLT(0))
	a.Section(".xom")
	a.Label("key_setter")
	for _, i := range insn.MOVImm64(insn.X0, key.Lo) {
		a.I(i)
	}
	a.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X0))
	for _, i := range insn.MOVImm64(insn.X0, key.Hi) {
		a.I(i)
	}
	a.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X0))
	a.I(insn.MOVZ(insn.X0, 0, 0)) // scrub
	a.I(insn.RET())
	buildVectors(a)

	xomBase := uint64(pac.KernelBase) | 0x0034_0000
	c, img := load(t, a, map[string]uint64{
		".text": textBase, ".xom": xomBase, ".vectors": vbarBase,
	})
	mapKernelFlat(c)
	c.MMU.TT1.Map(xomBase, xomBase, mmu.KernelText)
	c.MMU.S2.Enabled = true
	c.MMU.S2.Restrict(xomBase, mmu.S2Perm{X: true}) // XOM

	c.SetSP(1, stackTop)
	c.VBAR = img.Symbols["vectors"]

	stop := run(t, c, img.Symbols["caller"], 1000)
	if stop.Kind != StopHLT || stop.Code != 0 {
		t.Fatalf("stop = %+v", stop)
	}
	if got := c.Signer.Key(pac.KeyIB); got != key {
		t.Fatalf("installed key = %+v, want %+v", got, key)
	}
	if c.X[0] != 0 {
		t.Fatal("key material left in GPR after setter")
	}

	// Now try to read the key-setter code (disassembly attack).
	a2 := asm.New()
	a2.Label("spy")
	a2.MOVAddr(insn.X1, "dummy")
	a2.I(insn.LDR(insn.X0, insn.X1, 0))
	a2.I(insn.HLT(0x22))
	a2.Label("dummy")
	img2, err := a2.Link(map[string]uint64{".text": textBase + 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	// Point the load at the XOM page instead of the dummy.
	c.Bus.RAM.WriteBytes(img2.Sections[".text"].Base, img2.Sections[".text"].Bytes)
	c.InvalidateDecode()
	c.PC = img2.Symbols["spy"]
	c.X[1] = xomBase // overwrite pointer directly
	// Skip the MOVAddr chain; jump straight to the load.
	c.PC = img2.Symbols["spy"] + 4*insn.Size
	stop = c.Run(100)
	if stop.Kind != StopHLT || stop.Code != 0xE1 {
		t.Fatalf("stop = %+v, want HLT 0xE1 (data abort reading XOM)", stop)
	}
	if FaultKindFromISS(c.ESR&0x1FFFFFF) != mmu.FaultStage2 {
		t.Fatalf("ISS = %#x, want stage-2 fault", c.ESR&0x1FFFFFF)
	}
}

// TestKeyInstallCostCalibration pins the §6.1.1 calibration: installing a
// 128-bit key through the immediates of the XOM setter costs 12 cycles
// (two MOVZ+3×MOVK chains at 1 cycle each plus two 2-cycle MSRs); the
// memory-sourced restore on kernel exit costs 6 (LDP + two MSRs); the
// round-trip average is the paper's 9 cycles per key.
func TestKeyInstallCostCalibration(t *testing.T) {
	a := asm.New()
	a.Label("setkey")
	for _, i := range insn.MOVImm64(insn.X0, 0x1111_2222_3333_4444) {
		a.I(i)
	}
	a.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X0))
	for _, i := range insn.MOVImm64(insn.X0, 0x5555_6666_7777_8888) {
		a.I(i)
	}
	a.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X0))
	a.I(insn.HLT(0))
	c, img := load(t, a, map[string]uint64{".text": textBase})
	start := c.Cycles
	run(t, c, img.Symbols["setkey"], 100)
	cycles := c.Cycles - start - 1 // exclude the HLT
	if cycles != 12 {
		t.Fatalf("immediate key install = %d cycles, want 12 (§6.1.1 calibration)", cycles)
	}

	// Memory-sourced restore: ldp + msr + msr = 6 cycles.
	b := asm.New()
	b.Label("restore")
	b.I(insn.LDP(insn.X6, insn.X7, insn.X0, 0))
	b.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X6))
	b.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X7))
	b.I(insn.HLT(0))
	c2, img2 := load(t, b, map[string]uint64{".text": textBase})
	c2.X[0] = dataBase
	start = c2.Cycles
	run(t, c2, img2.Symbols["restore"], 100)
	if got := c2.Cycles - start - 1; got != 6 {
		t.Fatalf("memory key restore = %d cycles, want 6", got)
	}
	// (12 + 6) / 2 = 9 cycles per key per switch direction — §6.1.1.
}

// TestPAuthDisabledBySCTLR: with EnIB clear, PACIB is an architectural NOP.
func TestPAuthDisabledBySCTLR(t *testing.T) {
	a := asm.New()
	a.Label("f")
	a.I(insn.PACIB(insn.X0, insn.X1))
	a.I(insn.HLT(0))
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.SCTLR = 0 // all PAuth disabled
	c.X[0] = uint64(pac.KernelBase) | 0x1234
	before := c.X[0]
	run(t, c, img.Symbols["f"], 10)
	if c.X[0] != before {
		t.Fatalf("PACIB modified register with EnIB clear: %#x", c.X[0])
	}
}

// TestV80Compat: on an ARMv8.0 core the HINT forms are NOPs and the
// register forms are undefined (§5.5).
func TestV80Compat(t *testing.T) {
	a := asm.New()
	a.Label("f")
	a.I(insn.PACIB1716())
	a.I(insn.AUTIB1716())
	a.I(insn.HLT(0))
	a.Label("g")
	a.I(insn.PACIB(insn.X0, insn.X1))
	a.I(insn.HLT(1))
	buildVectors(a)
	c, img := load(t, a, map[string]uint64{".text": textBase, ".vectors": vbarBase})
	c.Feat = Features{PAuth: false}
	c.VBAR = img.Symbols["vectors"]
	c.X[17] = 0x1234
	stop := run(t, c, img.Symbols["f"], 10)
	if stop.Kind != StopHLT || stop.Code != 0 {
		t.Fatalf("hint forms: stop = %+v", stop)
	}
	if c.X[17] != 0x1234 {
		t.Fatal("PACIB1716 modified x17 on v8.0 core")
	}
	// Register form must trap.
	stop = run(t, c, img.Symbols["g"], 10)
	if stop.Kind != StopHLT || stop.Code != 0xE1 {
		t.Fatalf("register form: stop = %+v, want undefined exception", stop)
	}
}

// TestReservedBitfieldWordsUndefined: bitfield words whose N bit differs
// from sf are unallocated in A64. The seed interpreter (NoBlockCache +
// NoTLB) and the fast path must both raise an undefined-instruction
// exception for them (EC 0, vector VBAR+0x200), not retire them as SBFM.
func TestReservedBitfieldWordsUndefined(t *testing.T) {
	for _, w := range []uint32{0x13410000, 0x93000000} { // sf=0 N=1; sf=1 N=0
		for _, seed := range []bool{true, false} {
			a := asm.New()
			a.Label("f")
			a.Bytes([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
			a.I(insn.HLT(0))
			buildVectors(a)
			c, img := load(t, a, map[string]uint64{".text": textBase, ".vectors": vbarBase})
			c.NoBlockCache = seed
			c.MMU.NoTLB = seed
			c.VBAR = img.Symbols["vectors"]
			c.X[0] = 0x5555
			stop := run(t, c, img.Symbols["f"], 10)
			if stop.Kind != StopHLT || stop.Code != 0xE1 {
				t.Errorf("%#08x (seed %t): stop = %+v, want the VBAR+0x200 vector", w, seed, stop)
			}
			if ec := c.ESR >> 26; ec != ECUnknown || c.ELR != img.Symbols["f"] || c.X[0] != 0x5555 {
				t.Errorf("%#08x (seed %t): EC %#x, ELR %#x, x0 %#x; want EC 0 at f with x0 untouched",
					w, seed, ec, c.ELR, c.X[0])
			}
		}
	}
}

// TestMSRHookLockdown: the hypervisor hook can deny MMU register writes.
func TestMSRHookLockdown(t *testing.T) {
	a := asm.New()
	a.Label("f")
	a.I(insn.MOVZ(insn.X0, 0xBEEF, 0))
	a.I(insn.MSR(insn.TTBR1_EL1, insn.X0))
	a.I(insn.HLT(0))
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.TTBR1 = 0x1000
	denied := 0
	c.OnMSR = func(r insn.SysReg, v uint64) bool {
		if r == insn.TTBR1_EL1 {
			denied++
			return true // consume: lockdown
		}
		return false
	}
	run(t, c, img.Symbols["f"], 10)
	if denied != 1 {
		t.Fatalf("hook fired %d times", denied)
	}
	if c.TTBR1 != 0x1000 {
		t.Fatalf("TTBR1 = %#x; lockdown failed", c.TTBR1)
	}
}

// TestBLRABAuthenticatedCall: the combined authenticate-and-call form.
func TestBLRABAuthenticatedCall(t *testing.T) {
	a := asm.New()
	a.Label("main")
	a.MOVAddr(insn.X1, "callee")
	a.I(insn.MOVZ(insn.X2, 0x77, 0)) // modifier
	a.I(insn.PACIB(insn.X1, insn.X2))
	a.I(insn.BLRAB(insn.X1, insn.X2))
	a.I(insn.HLT(0))
	a.Label("callee")
	a.I(insn.MOVZ(insn.X0, 5, 0))
	a.I(insn.RET())
	c, img := load(t, a, map[string]uint64{".text": textBase})
	c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 1, Lo: 2})
	stop := run(t, c, img.Symbols["main"], 100)
	if stop.Kind != StopHLT || c.X[0] != 5 || c.PACFailures != 0 {
		t.Fatalf("stop=%+v x0=%d failures=%d", stop, c.X[0], c.PACFailures)
	}
}

// TestPMCCNTRReadsCycles: the cycle counter is visible in-guest, which the
// micro-benchmarks rely on.
func TestPMCCNTRReadsCycles(t *testing.T) {
	a := asm.New()
	a.Label("f")
	a.I(insn.MRS(insn.X0, insn.PMCCNTR_EL0))
	a.I(insn.NOP())
	a.I(insn.NOP())
	a.I(insn.MRS(insn.X1, insn.PMCCNTR_EL0))
	a.I(insn.HLT(0))
	c, img := load(t, a, map[string]uint64{".text": textBase})
	run(t, c, img.Symbols["f"], 10)
	if c.X[1] <= c.X[0] {
		t.Fatalf("cycle counter not monotonic: %d then %d", c.X[0], c.X[1])
	}
}

func TestUserCannotTouchKernelMemory(t *testing.T) {
	a := asm.New()
	a.Section(".user")
	a.Label("user")
	a.MOVAddr(insn.X1, "user") // overwritten below
	a.I(insn.LDR(insn.X0, insn.X1, 0))
	a.I(insn.HLT(0x33))
	buildVectors(a)
	img, err := a.Link(map[string]uint64{".text": textBase, ".user": userText, ".vectors": vbarBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	mapKernelFlat(c)
	for off := uint64(0); off < 0x10000; off += mmu.PageSize {
		c.MMU.TT0.Map(userText+off, userText+off, mmu.UserText)
	}
	c.VBAR = img.Symbols["vectors"]
	c.EL = 0
	c.PC = img.Symbols["user"] + 4*insn.Size // skip MOVAddr
	c.X[1] = dataBase                        // kernel address
	stop := c.Run(100)
	if stop.Kind != StopHLT || stop.Code != 0xE4 {
		t.Fatalf("stop = %+v, want sync-lower abort", stop)
	}
	if c.EL != 1 {
		t.Fatal("abort did not enter EL1")
	}
}
