package cpu

import (
	"bytes"
	"fmt"
	"testing"

	"camouflage/internal/asm"
	"camouflage/internal/insn"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/obs"
	"camouflage/internal/pac"
)

// runSnippet assembles and executes a code fragment ending in HLT, with
// optional pre-set registers, and returns the CPU.
func runSnippet(t *testing.T, setup func(c *CPU), build func(a *asm.Assembler)) *CPU {
	t.Helper()
	a := asm.New()
	a.Label("entry")
	build(a)
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	c.SCTLR = insn.SCTLRPAuthAll
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.SetSP(1, stackTop)
	if setup != nil {
		setup(c)
	}
	c.PC = img.Symbols["entry"]
	stop := c.Run(100000)
	if stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	return c
}

func TestMOVNAndMOVK32(t *testing.T) {
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.MOVN(insn.X0, 0, 0))       // x0 = ^0
		a.I(insn.MOVN(insn.X1, 0xFFFF, 48)) // x1 = ^(0xFFFF<<48)
		a.I(insn.MOVZW(insn.X2, 0xFB45, 0)) // w2 = 0xFB45 (upper cleared)
		a.I(insn.HLT(0))
	})
	if c.X[0] != ^uint64(0) {
		t.Errorf("movn zero = %#x", c.X[0])
	}
	if c.X[1] != 0x0000_FFFF_FFFF_FFFF {
		t.Errorf("movn shifted = %#x", c.X[1])
	}
	if c.X[2] != 0xFB45 {
		t.Errorf("movz w-form = %#x", c.X[2])
	}
}

func TestADRP(t *testing.T) {
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.ADRP(insn.X0, 2)) // PC page + 2 pages
		a.I(insn.HLT(0))
	})
	want := textBase&^uint64(4095) + 2*4096
	if c.X[0] != want {
		t.Fatalf("adrp = %#x, want %#x", c.X[0], want)
	}
}

func TestUDIVByZeroGivesZero(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = 100
		c.X[2] = 0
		c.X[4] = 7
	}, func(a *asm.Assembler) {
		a.I(insn.UDIV(insn.X0, insn.X1, insn.X2)) // 100/0 = 0 on ARM
		a.I(insn.UDIV(insn.X3, insn.X1, insn.X4)) // 100/7 = 14
		a.I(insn.HLT(0))
	})
	if c.X[0] != 0 {
		t.Errorf("div by zero = %d, want 0 (ARM semantics)", c.X[0])
	}
	if c.X[3] != 14 {
		t.Errorf("100/7 = %d", c.X[3])
	}
}

func TestShiftsByRegister(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = 0xF0
		c.X[2] = 4
	}, func(a *asm.Assembler) {
		a.I(insn.LSLV(insn.X0, insn.X1, insn.X2))
		a.I(insn.LSRV(insn.X3, insn.X1, insn.X2))
		a.I(insn.HLT(0))
	})
	if c.X[0] != 0xF00 || c.X[3] != 0xF {
		t.Fatalf("lslv=%#x lsrv=%#x", c.X[0], c.X[3])
	}
}

// TestCSELAllConditions drives every condition code through a compare.
func TestCSELAllConditions(t *testing.T) {
	// After CMP 5, 7 (5-7): N=1 Z=0 C=0 V=0.
	expect := map[insn.Cond]bool{
		insn.EQ: false, insn.NE: true,
		insn.CS: false, insn.CC: true,
		insn.MI: true, insn.PL: false,
		insn.VS: false, insn.VC: true,
		insn.HI: false, insn.LS: true,
		insn.GE: false, insn.LT: true,
		insn.GT: false, insn.LE: true,
		insn.AL: true, insn.NV: true,
	}
	for cond, want := range expect {
		c := runSnippet(t, func(c *CPU) {
			c.X[1] = 5
			c.X[2] = 7
			c.X[3] = 111 // selected when cond holds
			c.X[4] = 222
		}, func(a *asm.Assembler) {
			a.I(insn.CMP(insn.X1, insn.X2))
			a.I(insn.CSEL(insn.X0, insn.X3, insn.X4, cond))
			a.I(insn.HLT(0))
		})
		got := c.X[0] == 111
		if got != want {
			t.Errorf("csel %v: cond held=%v, want %v", cond, got, want)
		}
	}
}

func TestFlagsUnsignedOverflow(t *testing.T) {
	// CMP 7, 5: C=1 (no borrow), Z=0, N=0.
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = 7
		c.X[2] = 5
	}, func(a *asm.Assembler) {
		a.I(insn.CMP(insn.X1, insn.X2))
		a.I(insn.CSEL(insn.X0, insn.X1, insn.XZR, insn.CS))
		a.I(insn.HLT(0))
	})
	if c.X[0] != 7 {
		t.Fatal("carry not set for 7-5")
	}
	// Signed overflow: min_int64 - 1.
	c = runSnippet(t, func(c *CPU) {
		c.X[1] = 0x8000_0000_0000_0000
		c.X[2] = 1
	}, func(a *asm.Assembler) {
		a.I(insn.CMP(insn.X1, insn.X2))
		a.I(insn.CSEL(insn.X0, insn.X1, insn.XZR, insn.VS))
		a.I(insn.HLT(0))
	})
	if c.X[0] != 0x8000_0000_0000_0000 {
		t.Fatal("V not set for min_int64 - 1")
	}
}

func TestByteAndWordAccess(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = dataBase
		c.X[2] = 0x1122334455667788
	}, func(a *asm.Assembler) {
		a.I(insn.STR(insn.X2, insn.X1, 0))
		a.I(insn.LDRB(insn.X3, insn.X1, 1))  // 0x77
		a.I(insn.LDRW(insn.X4, insn.X1, 4))  // 0x11223344
		a.I(insn.STRB(insn.X3, insn.X1, 8))  // write one byte
		a.I(insn.LDR(insn.X5, insn.X1, 8))   // read it back zero-extended
		a.I(insn.STRW(insn.X4, insn.X1, 16)) // 32-bit store
		a.I(insn.LDR(insn.X6, insn.X1, 16))
		a.I(insn.HLT(0))
	})
	if c.X[3] != 0x77 {
		t.Errorf("ldrb = %#x", c.X[3])
	}
	if c.X[4] != 0x11223344 {
		t.Errorf("ldrw = %#x", c.X[4])
	}
	if c.X[5] != 0x77 {
		t.Errorf("byte store roundtrip = %#x", c.X[5])
	}
	if c.X[6] != 0x11223344 {
		t.Errorf("word store roundtrip = %#x", c.X[6])
	}
}

func TestPrePostIndexAddressing(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = dataBase + 64
		c.X[2] = 42
	}, func(a *asm.Assembler) {
		a.I(insn.STRpre(insn.X2, insn.X1, -16)) // [x1-16] = 42; x1 -= 16
		a.I(insn.LDRpost(insn.X3, insn.X1, 8))  // x3 = [x1]; x1 += 8
		a.I(insn.HLT(0))
	})
	if c.X[3] != 42 {
		t.Errorf("pre/post roundtrip = %d", c.X[3])
	}
	if c.X[1] != dataBase+64-16+8 {
		t.Errorf("base after writeback = %#x", c.X[1])
	}
}

func TestBFXILPath(t *testing.T) {
	// BFI with lsb 0 exercises the s >= r (BFXIL-like) path.
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = 0xABCD
		c.X[0] = 0xFFFF_FFFF_FFFF_0000
	}, func(a *asm.Assembler) {
		a.I(insn.BFI(insn.X0, insn.X1, 0, 16))
		a.I(insn.HLT(0))
	})
	if c.X[0] != 0xFFFF_FFFF_FFFF_ABCD {
		t.Fatalf("bfi lsb=0 = %#x", c.X[0])
	}
}

func TestUBFXAndSBFM(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = 0xFFEE_0000_0000_0000
	}, func(a *asm.Assembler) {
		a.I(insn.UBFX(insn.X0, insn.X1, 48, 16)) // 0xFFEE
		a.I(insn.HLT(0))
	})
	if c.X[0] != 0xFFEE {
		t.Fatalf("ubfx = %#x", c.X[0])
	}
}

// TestSelfModifyingCodeInvalidatesDecodeCache: a guest store over an
// upcoming instruction must take effect (bootloader-style patching).
func TestSelfModifyingCodeInvalidatesDecodeCache(t *testing.T) {
	a := asm.New()
	a.Label("entry")
	// First execute the target once so it enters the decode cache.
	a.BL("target")
	// Patch target's first instruction to movz x0, #7.
	patch := insn.MOVZ(insn.X0, 7, 0).Encode()
	a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
	a.ADR(insn.X10, "target")
	a.I(insn.STRW(insn.X9, insn.X10, 0))
	a.BL("target")
	a.I(insn.HLT(0))
	a.Label("target")
	a.I(insn.MOVZ(insn.X0, 1, 0))
	a.I(insn.RET())
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.SetSP(1, stackTop)
	c.PC = img.Symbols["entry"]
	if stop := c.Run(1000); stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 7 {
		t.Fatalf("x0 = %d; stale decode cache served the old instruction", c.X[0])
	}
}

// TestSameBlockSelfModifyingStore: a store that patches an instruction
// *later in the currently executing straight-line block* must take
// effect before that instruction runs — runTrace has to abandon
// pre-decoded state the moment its own code page is written.
func TestSameBlockSelfModifyingStore(t *testing.T) {
	a := asm.New()
	a.Label("entry")
	patch := insn.MOVZ(insn.X0, 7, 0).Encode()
	a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
	a.ADR(insn.X10, "target")
	a.I(insn.STRW(insn.X9, insn.X10, 0))
	// No branch between the store and the target: entry..HLT decodes as
	// one block, and the store rewrites an instruction inside it.
	a.Label("target")
	a.I(insn.MOVZ(insn.X0, 1, 0))
	a.I(insn.HLT(0))
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.SetSP(1, stackTop)
	c.PC = img.Symbols["entry"]
	if stop := c.Run(1000); stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 7 {
		t.Fatalf("x0 = %d; stale in-block instruction executed", c.X[0])
	}
}

// TestBlockSpanningStoreInvalidates: a single 8-byte store overwriting
// TWO instructions of a previously executed block must kill the whole
// block, not just the directly addressed word (the seed's word-granular
// delete could leave a multi-word run half-stale).
func TestBlockSpanningStoreInvalidates(t *testing.T) {
	a := asm.New()
	a.Label("entry")
	a.BL("target") // cache the block at target
	lo := insn.MOVZ(insn.X0, 7, 0).Encode()
	hi := insn.MOVZ(insn.X1, 9, 0).Encode()
	a.I(insn.MOVImm64(insn.X9, uint64(hi)<<32|uint64(lo))...)
	a.ADR(insn.X10, "target")
	a.I(insn.STR(insn.X9, insn.X10, 0)) // spans both instructions
	a.BL("target")
	a.I(insn.HLT(0))
	a.Label("target")
	a.I(insn.MOVZ(insn.X0, 1, 0))
	a.I(insn.MOVZ(insn.X1, 2, 0))
	a.I(insn.RET())
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.SetSP(1, stackTop)
	c.PC = img.Symbols["entry"]
	if stop := c.Run(1000); stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 7 || c.X[1] != 9 {
		t.Fatalf("x0, x1 = %d, %d; block spanning the written range survived", c.X[0], c.X[1])
	}
}

// TestPageSpanningStoreInvalidatesBothPages: an 8-byte store straddling
// a page boundary rewrites the last instruction of one page and the
// first of the next; cached blocks on BOTH pages must be invalidated.
func TestPageSpanningStoreInvalidatesBothPages(t *testing.T) {
	a := asm.New()
	a.Label("entry")
	a.BL("tail") // cache blocks on both sides of the boundary
	lo := insn.MOVZ(insn.X0, 7, 0).Encode()
	hi := insn.MOVZ(insn.X1, 9, 0).Encode()
	a.I(insn.MOVImm64(insn.X9, uint64(hi)<<32|uint64(lo))...)
	a.ADR(insn.X10, "tail")
	a.I(insn.STR(insn.X9, insn.X10, 0)) // [page_end-4, page_end+4)
	a.BL("tail")
	a.I(insn.HLT(0))
	a.PadTo(0xFFC) // place tail's first instruction on the last word of the page
	a.Label("tail")
	a.I(insn.MOVZ(insn.X0, 1, 0)) // last word of page 0
	a.I(insn.MOVZ(insn.X1, 2, 0)) // first word of page 1
	a.I(insn.RET())
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.SetSP(1, stackTop)
	c.PC = img.Symbols["entry"]
	if stop := c.Run(1000); stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if c.X[0] != 7 || c.X[1] != 9 {
		t.Fatalf("x0, x1 = %d, %d; stale block survived a page-spanning store", c.X[0], c.X[1])
	}
}

// TestBlockCacheMatchesLegacyPath: the block-cached pipeline and the
// seed's per-instruction path must produce identical architectural
// results and identical cycle/retire accounting.
func TestBlockCacheMatchesLegacyPath(t *testing.T) {
	build := func(noCache bool) *CPU {
		a := asm.New()
		a.Label("entry")
		a.I(insn.MOVZ(insn.X5, 50, 0))
		a.Label("loop")
		a.BL("f")
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))
		a.Label("f")
		a.I(insn.ADDi(insn.X0, insn.X0, 3))
		a.I(insn.EORr(insn.X1, insn.X1, insn.X0))
		a.I(insn.RET())
		img, err := a.Link(map[string]uint64{".text": textBase})
		if err != nil {
			t.Fatal(err)
		}
		c := New(Features{PAuth: true})
		c.NoBlockCache = noCache
		c.MMU.NoTLB = noCache
		for _, s := range img.Sections {
			c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
		}
		c.SetSP(1, stackTop)
		c.PC = img.Symbols["entry"]
		if stop := c.Run(100000); stop.Kind != StopHLT {
			t.Fatalf("stop = %+v", stop)
		}
		return c
	}
	fast := build(false)
	slow := build(true)
	if fast.X[0] != slow.X[0] || fast.X[1] != slow.X[1] {
		t.Fatalf("architectural divergence: fast x0/x1 = %d/%d, legacy %d/%d",
			fast.X[0], fast.X[1], slow.X[0], slow.X[1])
	}
	if fast.Cycles != slow.Cycles || fast.Retired != slow.Retired {
		t.Fatalf("accounting divergence: fast %d cycles/%d retired, legacy %d/%d",
			fast.Cycles, fast.Retired, slow.Cycles, slow.Retired)
	}
}

// TestBudgetSweepMatchesLegacyPath runs each program on the fast path
// and on the seed interpreter in lockstep, in Run slices of a fixed
// budget, and requires identical architectural state, stop kind and MSR
// hook calls after every slice. Odd budgets stop the fast path inside
// one-block views, inside fused trace bodies and between their laps.
//
// "calls" calls a function through BL/RET; the function signs its
// return address with PACIB, spills it to the stack, runs an inner
// counted loop that fuses into a looping trace, reloads the spill and
// authenticates it with AUTIB.
//
// "kernel" drives every class runTrace retires inline besides loads,
// stores and ALU ops, mid-block and mid-trace: an MSR key switch
// followed by PACIB/AUTIB under the new key, an MRS of the cycle
// counter, BFM in both directions, a BL chain five calls deep whose
// RETs fuse to their blocks' last targets, one iteration that
// overwrites the chain's spilled LR so a fused RET side-exits, a BLR
// alternating between two callees, and one MSR to the read-only
// MPIDR_EL1, which must raise undefined after calling the hook exactly
// once. The handler skips the faulting instruction with MRS/MSR
// ELR_EL1 and ERET. On an ARMv8.0 core the key MSRs, PACIB and AUTIB
// fault too.
//
// "trap-frame" runs the fused ops with the MMU on, so stores and loads
// take the host-pointer path, and compares the pages it writes too. Its
// first loop is el0_sync's 15-STP push and ret_to_user's 15-LDP pop off
// SP around 64- and 32-bit MOVZ+MOVK chains and two look-alikes that are
// not chains, then an LDP run whose third pair reloads its base
// register; an extra budget ends a slice inside every fused op of the
// loop's trace. Its second loop stores an STP run into a code page and
// calls the code it rewrote, and its third stores an STP run that
// crosses into an unmapped page: each pair there aborts, the handler
// skips it, and the pairs before it must have been stored.
func TestBudgetSweepMatchesLegacyPath(t *testing.T) {
	calls := func(a *asm.Assembler) {
		a.Label("entry")
		a.I(insn.MOVZ(insn.X5, 24, 0))
		a.Label("call")
		a.BL("f")
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "call")
		a.I(insn.HLT(0))
		a.Label("f")
		a.I(insn.PACIB(insn.LR, insn.SP))
		a.I(insn.STRpre(insn.LR, insn.SP, -16))
		a.I(insn.MOVZ(insn.X6, 5, 0))
		a.Label("inner")
		a.I(insn.ADDi(insn.X0, insn.X0, 3))
		a.I(insn.EORr(insn.X1, insn.X1, insn.X0))
		a.I(insn.SUBi(insn.X6, insn.X6, 1))
		a.CBNZ(insn.X6, "inner")
		a.I(insn.LDRpost(insn.LR, insn.SP, 16))
		a.I(insn.AUTIB(insn.LR, insn.SP))
		a.I(insn.RET())
	}
	kernel := func(a *asm.Assembler) {
		a.Label("entry")
		a.I(insn.MOVZ(insn.X5, 40, 0))
		a.I(insn.MOVZ(insn.X16, 1, 0))
		a.I(insn.MOVZ(insn.X13, 12, 0)) // the iteration that smashes LR
		a.I(insn.MOVZ(insn.X14, 7, 0))  // the iteration that writes MPIDR_EL1
		a.I(insn.MOVZ(insn.X10, 0x1234, 0))
		a.MOVAddr(insn.X21, "even")
		a.MOVAddr(insn.X22, "odd")
		a.MOVAddr(insn.X24, "detour")
		a.Label("loop")
		a.I(insn.ADDr(insn.X9, insn.X5, insn.X10))
		a.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X9))
		a.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X5))
		a.I(insn.PACIB(insn.X10, insn.SP))
		a.I(insn.EORr(insn.X1, insn.X1, insn.X10))
		a.I(insn.MRS(insn.X11, insn.PMCCNTR_EL0))
		a.I(insn.EORr(insn.X1, insn.X1, insn.X11))
		a.I(insn.AUTIB(insn.X10, insn.SP))
		a.I(insn.BFI(insn.X12, insn.X5, 8, 4))
		a.I(insn.BFI(insn.X12, insn.X1, 0, 4))
		a.BL("d1")
		a.I(insn.ANDSr(insn.X17, insn.X5, insn.X16))
		a.I(insn.CSEL(insn.X23, insn.X21, insn.X22, insn.EQ))
		a.I(insn.BLR(insn.X23))
		a.I(insn.CMP(insn.X5, insn.X14))
		a.Bcond(insn.NE, "next")
		a.I(insn.MSR(insn.MPIDR_EL1, insn.X5))
		a.Label("next")
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))

		// The chain d1 → … → d5 nests five calls deep. d2 rewrites its
		// spilled LR without branching, so the smash reaches the same
		// fused RET as every other iteration.
		const depth = 5
		for d := 1; d < depth; d++ {
			a.Label(fmt.Sprintf("d%d", d))
			a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
			a.BL(fmt.Sprintf("d%d", d+1))
			a.Label(fmt.Sprintf("d%dtail", d))
			if d == 2 {
				a.I(insn.CMP(insn.X5, insn.X13))
				a.I(insn.LDR(insn.X9, insn.SP, 8))
				a.I(insn.CSEL(insn.X9, insn.X24, insn.X9, insn.EQ))
				a.I(insn.STR(insn.X9, insn.SP, 8))
			}
			a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
			a.I(insn.RET())
		}
		a.Label(fmt.Sprintf("d%d", depth))
		a.I(insn.ADDi(insn.X2, insn.X2, 5))
		a.I(insn.RET())
		a.Label("even")
		a.I(insn.ADDi(insn.X3, insn.X3, 1))
		a.I(insn.RET())
		a.Label("odd")
		a.I(insn.ADDi(insn.X4, insn.X4, 2))
		a.I(insn.RET())
		a.Label("detour")
		a.I(insn.ADDi(insn.X6, insn.X6, 1))
		a.B("d1tail")

		a.Section(".vectors")
		a.Label("vectors")
		a.PadTo(VecSyncCurrent)
		a.I(insn.MRS(insn.X15, insn.ELR_EL1))
		a.I(insn.ADDi(insn.X15, insn.X15, insn.Size))
		a.I(insn.MSR(insn.ELR_EL1, insn.X15))
		a.I(insn.ERET())
	}
	const (
		patchBase = uint64(pac.KernelBase) | 0x0018_0000 // patched: a writable code page
		holeBase  = uint64(pac.KernelBase) | 0x0019_0000 // an unmapped page
	)
	trapFrame := func(a *asm.Assembler) {
		a.Label("entry")
		a.I(insn.MOVImm64(insn.X3, patchBase)...)
		a.I(insn.MOVImm64(insn.X4, holeBase-32)...)
		a.I(insn.MOVZ(insn.X5, 150, 0))
		a.BL("patched") // the page now holds decoded code
		a.Label("frame")
		a.I(insn.SUBi(insn.SP, insn.SP, 240))
		for r := 0; r < 30; r += 2 {
			a.I(insn.STP(insn.Reg(r), insn.Reg(r+1), insn.SP, int16(8*r)))
		}
		a.I(insn.MOVImm64(insn.X0, 0x1234_5678_9ABC_DEF0)...)
		a.I(insn.MOVZW(insn.X1, 0xBEEF, 0))
		movkw := insn.MOVK(insn.X1, 0xDEAD, 16)
		movkw.SF = false
		a.I(movkw)
		// Not chains: a 32-bit MOVK clears the MOVZ's halfword, and a
		// second write to one halfword hides the MOVZ's immediate.
		a.I(insn.MOVZ(insn.X12, 0xBEEF, 48))
		movkw.Rd, movkw.Imm, movkw.Shift = insn.X12, 1, 0
		a.I(movkw)
		a.I(insn.MOVZ(insn.X13, 1, 16))
		a.I(insn.MOVK(insn.X13, 2, 16))
		a.I(insn.EORr(insn.X6, insn.X0, insn.X1))
		for r := 0; r < 30; r += 2 {
			a.I(insn.LDP(insn.Reg(r), insn.Reg(r+1), insn.SP, int16(8*r)))
		}
		a.I(insn.ADDi(insn.SP, insn.SP, 240))
		// The third LDP reloads x2 with x2+64: the fourth must address
		// off the new base, where x6 was stored, not the old one.
		a.I(insn.MOVImm64(insn.X2, dataBase)...)
		a.I(insn.ADDi(insn.X9, insn.X2, 64))
		a.I(insn.STR(insn.X9, insn.X2, 40))
		a.I(insn.STR(insn.X6, insn.X2, 112))
		a.I(insn.LDP(insn.X8, insn.X9, insn.X2, 0))
		a.I(insn.LDP(insn.X10, insn.X11, insn.X2, 16))
		a.I(insn.LDP(insn.X12, insn.X2, insn.X2, 32))
		a.I(insn.LDP(insn.X13, insn.X14, insn.X2, 48))
		a.I(insn.ADDr(insn.X6, insn.X6, insn.X13))
		a.I(insn.ADDi(insn.X6, insn.X6, 1))
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.Label("frame_end")
		a.CBNZ(insn.X5, "frame")

		// Each pass rewrites patched, alternating its ADD between #1 and
		// #2, and calls it: a stale decode would add the old immediate.
		ret := uint64(insn.RET().Encode()) << 32
		a.I(insn.MOVImm64(insn.X20, uint64(insn.ADDi(insn.X7, insn.X7, 1).Encode())|ret)...)
		a.I(insn.MOVImm64(insn.X21, uint64(insn.ADDi(insn.X7, insn.X7, 2).Encode())|ret)...)
		a.I(insn.MOVZ(insn.X5, 24, 0))
		a.Label("codepage")
		a.I(insn.STP(insn.X20, insn.X21, insn.X3, 0))
		a.I(insn.STP(insn.X8, insn.X9, insn.X3, 16))
		a.I(insn.STP(insn.X10, insn.X11, insn.X3, 32))
		a.I(insn.BLR(insn.X3))
		a.I(insn.EORr(insn.X20, insn.X20, insn.X21))
		a.I(insn.EORr(insn.X21, insn.X21, insn.X20))
		a.I(insn.EORr(insn.X20, insn.X20, insn.X21))
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "codepage")

		a.I(insn.MOVZ(insn.X5, 24, 0))
		a.Label("cross")
		a.I(insn.STP(insn.X6, insn.X7, insn.X4, 0))
		a.I(insn.STP(insn.X8, insn.X9, insn.X4, 16))
		a.I(insn.STP(insn.X10, insn.X11, insn.X4, 32))
		a.I(insn.STP(insn.X12, insn.X13, insn.X4, 48))
		a.I(insn.ADDi(insn.X6, insn.X6, 1))
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "cross")
		a.I(insn.HLT(0))

		a.Section(".patch")
		a.Label("patched")
		a.I(insn.RET())
		a.I(insn.RET())

		a.Section(".vectors")
		a.Label("vectors")
		a.PadTo(VecSyncCurrent)
		a.I(insn.MRS(insn.X15, insn.ELR_EL1))
		a.I(insn.ADDi(insn.X15, insn.X15, insn.Size))
		a.I(insn.MSR(insn.ELR_EL1, insn.X15))
		a.I(insn.ERET())
	}
	trapFrameMMU := func(c *CPU) {
		mapKernelFlat(c)
		c.MMU.TT1.Map(patchBase, patchBase, mmu.KernelText|mmu.W1)
		c.MMU.TT1.Unmap(holeBase)
	}
	kernelDone := func(c *CPU, mpidr int) string {
		if c.X[6] != 1 || mpidr != 1 {
			return fmt.Sprintf("detours = %d, MPIDR_EL1 hook calls = %d; want 1 and 1", c.X[6], mpidr)
		}
		return ""
	}
	noCheck := func(*CPU, int) string { return "" }
	for _, prog := range []struct {
		name  string
		feat  Features
		build func(a *asm.Assembler)
		// done checks the fast machine once it halted; mpidr counts
		// its hook calls for MPIDR_EL1.
		done func(c *CPU, mpidr int) string
		// mmu, if set, maps the program's memory and turns the MMU on.
		mmu func(c *CPU)
		// pages are the identity-mapped pages compared after every slice.
		pages []uint64
		// loop, if set, labels a loop ending at loop+"_end" whose looping
		// trace must hold fused ops, each cut by the budget (see below).
		loop string
	}{
		{name: "calls", feat: Features{PAuth: true}, build: calls, done: func(c *CPU, _ int) string {
			for _, b := range c.blocks {
				if b.tr != nil && b.tr.looping {
					return ""
				}
			}
			return "no looping trace was built for the inner loop"
		}},
		{name: "kernel", feat: Features{PAuth: true}, build: kernel, done: kernelDone},
		{name: "kernel-v8.0", feat: Features{PAuth: false}, build: kernel, done: kernelDone},
		{name: "trap-frame", feat: Features{PAuth: true}, build: trapFrame, done: noCheck,
			mmu: trapFrameMMU, loop: "frame",
			pages: []uint64{stackTop - mmu.PageSize, dataBase, patchBase, holeBase - mmu.PageSize}},
	} {
		t.Run(prog.name, func(t *testing.T) {
			a := asm.New()
			prog.build(a)
			img, err := a.Link(map[string]uint64{".text": textBase, ".vectors": vbarBase, ".patch": patchBase})
			if err != nil {
				t.Fatal(err)
			}
			// hooks counts MSR hook calls: all of them, and those for
			// MPIDR_EL1.
			type hooks struct{ all, mpidr int }
			boot := func(seed bool, h *hooks) *CPU {
				c := New(prog.feat)
				c.NoBlockCache = seed
				c.MMU.NoTLB = seed
				c.SCTLR = insn.SCTLRPAuthAll
				c.VBAR = vbarBase
				c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 0x0123_4567, Lo: 0x89AB_CDEF})
				c.OnMSR = func(r insn.SysReg, _ uint64) bool {
					h.all++
					if r == insn.MPIDR_EL1 {
						h.mpidr++
					}
					return false
				}
				for _, s := range img.Sections {
					c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
				}
				if prog.mmu != nil {
					prog.mmu(c)
				}
				c.SetSP(1, stackTop)
				c.PC = img.Symbols["entry"]
				return c
			}
			budgets := []uint64{1, 2, 3, 5, 7, 11, 16, 17, 64, 100000}
			// The loop's body is L instructions. Budget 2L+1 is coprime
			// to L, so successive slices end at every offset into the
			// body, and each ends inside a lap of its looping trace: a
			// slice that starts mid-body runs to the loop head as a
			// one-block view and leaves the trace at least L+1 steps.
			var cutBudget uint64
			ends := map[uint64]bool{} // PCs at which a cutBudget slice ended
			if prog.loop != "" {
				body := (img.Symbols[prog.loop+"_end"]-img.Symbols[prog.loop])/insn.Size + 1
				cutBudget = 2*body + 1
				budgets = append(budgets, cutBudget)
			}
			var entered uint64
			for _, budget := range budgets {
				var fastHooks, seedHooks hooks
				fast, seed := boot(false, &fastHooks), boot(true, &seedHooks)
				for call := 1; ; call++ {
					fs, ss := fast.Run(budget), seed.Run(budget)
					if fs.Kind != ss.Kind {
						t.Fatalf("budget %d, Run #%d: fast path stopped with %v, seed interpreter with %v", budget, call, fs.Kind, ss.Kind)
					}
					if f, s := fast.CaptureState(), seed.CaptureState(); f != s {
						t.Fatalf("budget %d, Run #%d: state diverged\nfast: %+v\nseed: %+v", budget, call, f, s)
					}
					if fastHooks != seedHooks {
						t.Fatalf("budget %d, Run #%d: MSR hook calls %+v on the fast path, %+v on the seed interpreter", budget, call, fastHooks, seedHooks)
					}
					for _, pg := range prog.pages {
						if f, s := fast.Bus.RAM.ReadBytes(pg, mmu.PageSize), seed.Bus.RAM.ReadBytes(pg, mmu.PageSize); !bytes.Equal(f, s) {
							t.Fatalf("budget %d, Run #%d: page %#x diverged", budget, call, pg)
						}
					}
					if budget == cutBudget {
						ends[fast.PC] = true
					}
					if fs.Kind != StopLimit {
						break
					}
				}
				if fs := fast.CaptureState(); fs.PACFailures != 0 || fs.X[5] != 0 {
					t.Fatalf("budget %d: halted with %d PAC failures and x5 = %d; want a clean finish", budget, fs.PACFailures, fs.X[5])
				}
				if msg := prog.done(fast, fastHooks.mpidr); msg != "" {
					t.Fatalf("budget %d: %s", budget, msg)
				}
				if budget == cutBudget {
					if msg := cutEveryFusedOp(fast, img.Symbols[prog.loop], ends); msg != "" {
						t.Fatalf("budget %d: %s", budget, msg)
					}
				}
				entered += fast.TraceFollows
			}
			// Budgets below a trace body's length run only one-block views;
			// the larger ones must have entered fused traces.
			if entered == 0 {
				t.Fatal("no budget entered a fused trace; the sweep never exercised runTrace on one")
			}
		})
	}
}

// cutEveryFusedOp checks the looping trace entered at entry: it must
// hold a 15-STP run, a 15-LDP run and move-wide chains, and a slice must
// have ended (ends) inside each of its fused ops.
func cutEveryFusedOp(c *CPU, entry uint64, ends map[uint64]bool) string {
	var tr *trace
	for _, b := range c.blocks {
		if b.tr != nil && b.tr.looping && b.tr.entryVA == entry {
			tr = b.tr
		}
	}
	if tr == nil {
		return fmt.Sprintf("no looping trace at %#x", entry)
	}
	var kinds [3]bool // a 15-STP run, a 15-LDP run, a move chain
	for i, in := range tr.instrs {
		switch {
		case in.Op == opSTPRun && in.ImmS == 15:
			kinds[0] = true
		case in.Op == opLDPRun && in.ImmS == 15:
			kinds[1] = true
		case in.Op == opMOVImm:
			kinds[2] = true
		}
		if in.Op == opSTPRun || in.Op == opLDPRun || in.Op == opMOVImm {
			for j := 1; j < int(in.ImmS); j++ {
				if pc := entry + tr.at[i+j]; !ends[pc] {
					return fmt.Sprintf("no slice ended at %#x, inside the fused %v run at %#x", pc, insn.Op(in.Op), entry+tr.at[i])
				}
			}
		}
	}
	if kinds != [3]bool{true, true, true} {
		return fmt.Sprintf("the loop's trace lacks a fused op: 15-STP run, 15-LDP run, move chain = %v", kinds)
	}
	return ""
}

func TestIRQDeliveryAtEL0(t *testing.T) {
	a := asm.New()
	a.Section(".user")
	a.Label("user")
	a.Label("spin")
	a.I(insn.ADDi(insn.X0, insn.X0, 1))
	a.B("spin")
	buildVectors(a)
	img, err := a.Link(map[string]uint64{
		".text": textBase, ".user": userText, ".vectors": vbarBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.VBAR = img.Symbols["vectors"]
	c.EL = 0
	c.IRQMasked = false
	c.PC = img.Symbols["user"]
	// Run a little, then assert the IRQ line.
	c.Run(100)
	c.IRQPending = true
	stop := c.Run(100)
	if stop.Kind != StopHLT || stop.Code != 0xE5 {
		t.Fatalf("stop = %+v, want IRQ vector HLT 0xE5", stop)
	}
	if c.EL != 1 {
		t.Fatal("IRQ did not enter EL1")
	}
}

func TestPACGAInGuest(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.Signer.SetKey(pac.KeyGA, pac.Key{Hi: 5, Lo: 6})
		c.X[1] = 0x1234
		c.X[2] = 0x5678
	}, func(a *asm.Assembler) {
		a.I(insn.PACGA(insn.X0, insn.X1, insn.X2))
		a.I(insn.HLT(0))
	})
	if c.X[0] == 0 || c.X[0]&0xFFFF_FFFF != 0 {
		t.Fatalf("pacga = %#x; MAC must be in the high half", c.X[0])
	}
}

func TestXPACInGuest(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 1, Lo: 2})
		c.X[0] = uint64(pac.KernelBase) | 0x1000
		c.X[1] = 0x99 // modifier
	}, func(a *asm.Assembler) {
		a.I(insn.PACIB(insn.X0, insn.X1))
		a.I(insn.XPACI(insn.X0))
		a.I(insn.HLT(0))
	})
	if c.X[0] != uint64(pac.KernelBase)|0x1000 {
		t.Fatalf("xpac = %#x", c.X[0])
	}
}

func TestZeroRegisterSemantics(t *testing.T) {
	c := runSnippet(t, func(c *CPU) {
		c.X[1] = dataBase
	}, func(a *asm.Assembler) {
		a.I(insn.ADDi(insn.X2, insn.X2, 5))
		a.I(insn.ORRr(insn.XZR, insn.XZR, insn.X2, 0)) // write to xzr discarded
		a.I(insn.STR(insn.XZR, insn.X1, 0))            // store zero
		a.I(insn.LDR(insn.X3, insn.X1, 0))
		a.I(insn.HLT(0))
	})
	if c.X[3] != 0 {
		t.Fatalf("str xzr stored %#x", c.X[3])
	}
}

func TestCyclesToNanos(t *testing.T) {
	if got := CyclesToNanos(1_200_000_000); got != 1e9 {
		t.Fatalf("1.2G cycles = %f ns, want 1e9", got)
	}
	if got := CyclesToNanos(12); got != 10 {
		t.Fatalf("12 cycles = %f ns, want 10", got)
	}
}

func TestBankedSPAcrossELs(t *testing.T) {
	c := New(Features{PAuth: true})
	c.SetSP(0, 0x1000)
	c.SetSP(1, 0x2000)
	c.EL = 0
	if c.CurrentSP() != 0x1000 {
		t.Fatal("EL0 SP wrong")
	}
	c.EL = 1
	if c.CurrentSP() != 0x2000 {
		t.Fatal("EL1 SP wrong")
	}
	if c.SP(0) != 0x1000 {
		t.Fatal("banked SP lost")
	}
}

// TestEntryMemoAndTracesEngage: while a hot loop warms, its re-entries
// through the backward conditional branch must be served by the entry
// memo, not fresh fetches — and once past the hotness threshold the loop
// must be fused into a superblock trace and entered as one, serving the
// remaining iterations without any per-block work at all. In a syscall
// loop, the kernel path — key-switch MSRs, an MRS, a BFM, a BL to a
// PACIB/AUTIB-framed handler, its BLR to a leaf and both RETs — must
// retire inline, leaving only SVC and ERET to execute, and one fused
// trace must span the BL, the callee and the callee's RET.
func TestEntryMemoAndTracesEngage(t *testing.T) {
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.MOVZ(insn.X5, 64, 0))
		a.Label("loop")
		a.I(insn.ADDr(insn.X6, insn.X6, insn.X5))
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))
	})
	if c.EntryMemoHits < 8 {
		t.Fatalf("EntryMemoHits = %d; the entry memo is not engaging", c.EntryMemoHits)
	}
	if c.TracesBuilt == 0 || c.TraceFollows == 0 {
		t.Fatalf("TracesBuilt = %d, TraceFollows = %d; the hot loop was not fused into a trace",
			c.TracesBuilt, c.TraceFollows)
	}

	const iters = 64
	a := asm.New()
	a.Label("handler")
	a.I(insn.PACIB(insn.LR, insn.SP))
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.BLR(insn.X24))
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	a.I(insn.AUTIB(insn.LR, insn.SP))
	a.I(insn.RET())
	a.Label("getppid")
	a.I(insn.ADDi(insn.X0, insn.X0, 1))
	a.I(insn.RET())
	a.Section(".user")
	a.Label("user")
	a.I(insn.MOVZ(insn.X5, iters, 0))
	a.Label("loop")
	a.I(insn.MOVZ(insn.X8, 110, 0))
	a.I(insn.SVC(0))
	a.I(insn.SUBi(insn.X5, insn.X5, 1))
	a.CBNZ(insn.X5, "loop")
	a.I(insn.HLT(0))
	a.Section(".vectors")
	a.Label("vectors")
	a.PadTo(VecSyncLower)
	a.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X20))
	a.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X21))
	a.I(insn.MRS(insn.X9, insn.ESR_EL1))
	a.I(insn.BFI(insn.X9, insn.X8, 0, 8))
	a.BL("handler")
	a.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X22))
	a.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X23))
	a.I(insn.ERET())
	c, img := load(t, a, map[string]uint64{".text": textBase, ".user": userText, ".vectors": vbarBase})
	c.VBAR = vbarBase
	c.EL = 0
	c.SetSP(0, userStack)
	c.SetSP(1, stackTop)
	c.X[20], c.X[21], c.X[22], c.X[23] = 0x1111, 0x2222, 0x3333, 0x4444
	c.X[24] = img.Symbols["getppid"]
	var stop Stop
	d := obsDeltaOf(func() { stop = run(t, c, img.Symbols["user"], 100000) })
	if stop.Kind != StopHLT || c.X[0] != iters || c.PACFailures != 0 {
		t.Fatalf("syscall loop: stop = %+v, x0 = %d, PAC failures = %d; want HLT, %d, 0", stop, c.X[0], c.PACFailures, iters)
	}
	if got, want := d[obs.CSlowFallback], uint64(2*iters+1); got != want {
		t.Errorf("slow fallbacks = %d over %d syscalls; want %d (SVC and ERET each, plus the final HLT)", got, iters, want)
	}
	spans := false
	for _, b := range c.blocks {
		spans = spans || (b.tr != nil && spansCall(b.tr))
	}
	if !spans {
		t.Error("no fused trace spans a BL, its callee and the callee's RET")
	}
}

// spansCall reports whether t fuses a BL with its callee's RET back to
// the BL's return address.
func spansCall(t *trace) bool {
	for k, in := range t.instrs {
		if in.Op == insn.OpBL {
			for j := k + 1; j < len(t.instrs); j++ {
				if t.instrs[j].Op == insn.OpRET && t.at[j+1] == t.at[k]+insn.Size {
					return true
				}
			}
		}
	}
	return false
}

// TestSelfModifyingStoreSeversEntryMemo: once the warm loop's block
// entries are served by the entry memo, a guest store into a memoized
// target's code must sever its slot — re-entering the loop has to
// re-fetch and execute the patched instruction, not the memoized block.
// The loop stays below the hotness threshold, so no trace is involved.
func TestSelfModifyingStoreSeversEntryMemo(t *testing.T) {
	patch := insn.MOVZ(insn.X0, 7, 0).Encode()
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.MOVZ(insn.X5, 4, 0))
		a.Label("warm")
		a.B("target") // target's entry: memoized, then served from the memo
		a.Label("back")
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "warm")
		a.CBNZ(insn.X6, "done") // second pass: stop
		a.I(insn.MOVZ(insn.X6, 1, 0))
		// Patch target's MOVZ, then drive the warm loop once more
		// through its memoized entries.
		a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
		a.ADR(insn.X10, "target")
		a.I(insn.STRW(insn.X9, insn.X10, 0))
		a.I(insn.MOVZ(insn.X5, 1, 0))
		a.B("warm")
		a.Label("done")
		a.I(insn.HLT(0))
		a.Label("target")
		a.I(insn.MOVZ(insn.X0, 1, 0))
		a.B("back")
	})
	if c.X[0] != 7 {
		t.Fatalf("x0 = %d; a memoized entry served stale code after the patch", c.X[0])
	}
	if c.EntryMemoHits < 4 {
		t.Fatalf("EntryMemoHits = %d; the warm loop never hit the memo, so severing was not exercised", c.EntryMemoHits)
	}
}

// TestDeviceAccessesBypassHostPointers: with the MMU on and the data
// fast path warm, loads and stores to a device-mapped page must keep
// reaching the device (UART bytes arrive exactly once, status reads
// come from the device), while RAM accesses in the same loop use the
// host-pointer path.
func TestDeviceAccessesBypassHostPointers(t *testing.T) {
	const (
		textPA = uint64(0x8_0000)
		dataPA = uint64(0x40_0000)
		uartPA = uint64(0x0900_0000)
	)
	textVA := uint64(pac.KernelBase) | textPA
	dataVA := uint64(pac.KernelBase) | dataPA
	uartVA := uint64(pac.KernelBase) | uartPA

	a := asm.New()
	a.Label("entry")
	a.I(insn.MOVZ(insn.X5, 4, 0))   // iterations
	a.I(insn.MOVZ(insn.X6, 'A', 0)) // byte to transmit
	a.I(insn.MOVImm64(insn.X7, uartVA)...)
	a.I(insn.MOVImm64(insn.X8, dataVA)...)
	a.Label("loop")
	a.I(insn.STRB(insn.X6, insn.X7, 0))  // UART TX (device store)
	a.I(insn.LDRW(insn.X9, insn.X7, 24)) // UART status (device load, =1)
	a.I(insn.ADDr(insn.X10, insn.X10, insn.X9))
	a.I(insn.STR(insn.X5, insn.X8, 0)) // RAM store (host-pointer path)
	a.I(insn.LDR(insn.X11, insn.X8, 0))
	a.I(insn.SUBi(insn.X5, insn.X5, 1))
	a.CBNZ(insn.X5, "loop")
	a.I(insn.HLT(0))
	img, err := a.Link(map[string]uint64{".text": textVA})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Features{PAuth: true})
	u := &mem.UART{}
	if err := c.Bus.Map(uartPA, 0x1000, u); err != nil {
		t.Fatal(err)
	}
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(textPA+(s.Base-textVA), s.Bytes)
	}
	c.MMU.Enabled = true
	for off := uint64(0); off < 0x2000; off += mmu.PageSize {
		c.MMU.TT1.Map(textVA+off, textPA+off, mmu.KernelText)
	}
	c.MMU.TT1.Map(dataVA, dataPA, mmu.KernelData)
	c.MMU.TT1.Map(uartVA, uartPA, mmu.KernelData)
	c.PC = img.Symbols["entry"]
	if stop := c.Run(10000); stop.Kind != StopHLT {
		t.Fatalf("stop = %+v", stop)
	}

	if got := u.Output(); got != "AAAA" {
		t.Fatalf("UART output = %q, want \"AAAA\" (device stores lost or duplicated)", got)
	}
	if c.X[10] != 4 {
		t.Fatalf("status sum = %d, want 4 (device loads served from RAM?)", c.X[10])
	}
	if c.X[11] != 1 {
		t.Fatalf("RAM readback = %d, want 1", c.X[11])
	}
	if v, _ := c.Bus.Load(dataPA, 8); v != 1 {
		t.Fatalf("RAM store lost: %d", v)
	}
}
