package cpu

import (
	"testing"

	"camouflage/internal/asm"
	"camouflage/internal/insn"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
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

// TestBudgetSweepMatchesLegacyPath runs one program on the fast path and
// on the seed interpreter in lockstep, in Run slices of a fixed budget,
// and requires identical architectural state and stop kind after every
// slice. The program calls a function through BL/RET; the function signs
// its return address with PACIB, spills it to the stack, runs an inner
// counted loop that fuses into a looping trace, reloads the spill and
// authenticates it with AUTIB. Odd budgets stop the fast path inside
// one-block views, inside fused trace bodies and between their laps.
func TestBudgetSweepMatchesLegacyPath(t *testing.T) {
	a := asm.New()
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
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	boot := func(seed bool) *CPU {
		c := New(Features{PAuth: true})
		c.NoBlockCache = seed
		c.MMU.NoTLB = seed
		c.SCTLR = insn.SCTLRPAuthAll
		c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 0x0123_4567, Lo: 0x89AB_CDEF})
		for _, s := range img.Sections {
			c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
		}
		c.SetSP(1, stackTop)
		c.PC = img.Symbols["entry"]
		return c
	}
	var entered uint64
	for _, budget := range []uint64{1, 2, 3, 5, 7, 11, 16, 17, 64, 100000} {
		fast, seed := boot(false), boot(true)
		for call := 1; ; call++ {
			fs, ss := fast.Run(budget), seed.Run(budget)
			if fs.Kind != ss.Kind {
				t.Fatalf("budget %d, Run #%d: fast path stopped with %v, seed interpreter with %v", budget, call, fs.Kind, ss.Kind)
			}
			if f, s := fast.CaptureState(), seed.CaptureState(); f != s {
				t.Fatalf("budget %d, Run #%d: state diverged\nfast: %+v\nseed: %+v", budget, call, f, s)
			}
			if fs.Kind != StopLimit {
				break
			}
		}
		if fs := fast.CaptureState(); fs.PACFailures != 0 || fs.X[5] != 0 {
			t.Fatalf("budget %d: halted with %d PAC failures and x5 = %d; want a clean finish", budget, fs.PACFailures, fs.X[5])
		}
		looping := false
		for _, b := range fast.blocks {
			looping = looping || (b.tr != nil && b.tr.looping)
		}
		if !looping {
			t.Fatalf("budget %d: no looping trace was built for the inner loop", budget)
		}
		entered += fast.TraceFollows
	}
	// Budgets below a trace body's length run only one-block views; the
	// larger ones must have entered fused traces.
	if entered == 0 {
		t.Fatal("no budget entered a fused trace; the sweep never exercised runTrace on one")
	}
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
// remaining iterations without any per-block work at all.
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
