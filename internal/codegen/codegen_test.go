package codegen

import (
	"testing"

	"camouflage/internal/asm"
	"camouflage/internal/cpu"
	"camouflage/internal/insn"
	"camouflage/internal/pac"
)

const (
	textBase = uint64(pac.KernelBase) | 0x0008_0000
	stackTop = uint64(pac.KernelBase) | 0x0020_0000
	objBase  = uint64(pac.KernelBase) | 0x0018_0000
)

// buildAndRun assembles a program with "main" as entry and runs it.
func buildAndRun(t *testing.T, build func(a *asm.Assembler), pauth bool) *cpu.CPU {
	t.Helper()
	a := asm.New()
	build(a)
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Features{PAuth: pauth})
	c.SCTLR = insn.SCTLRPAuthAll
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.Signer.SetKey(pac.KeyIA, pac.Key{Hi: 0x11, Lo: 0x22})
	c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 0x33, Lo: 0x44})
	c.Signer.SetKey(pac.KeyDB, pac.Key{Hi: 0x55, Lo: 0x66})
	c.SetSP(1, stackTop)
	c.PC = img.Symbols["main"]
	stop := c.Run(100000)
	if stop.Kind == cpu.StopError {
		t.Fatalf("simulation error: %v", stop.Err)
	}
	if stop.Kind != cpu.StopHLT {
		t.Fatalf("did not halt: %+v", stop)
	}
	return c
}

// TestAllSchemesRoundTrip: a function instrumented under every scheme
// returns correctly in the benign case.
func TestAllSchemesRoundTrip(t *testing.T) {
	schemes := []Scheme{SchemeNone, SchemeClangSP, SchemePARTS, SchemeCamouflage, SchemeCamouflageCompat}
	for _, s := range schemes {
		cfg := &Config{Scheme: s}
		c := buildAndRun(t, func(a *asm.Assembler) {
			a.Label("main")
			a.I(insn.MOVZ(insn.X0, 3, 0))
			a.BL("f")
			a.I(insn.HLT(0))
			cfg.EmitFunc(a, FuncSpec{Name: "f", ALU: 2})
		}, true)
		if c.X[10] != 2 {
			t.Errorf("%v: body ran %d ALU ops, want 2", s, c.X[10])
		}
		if c.PACFailures != 0 {
			t.Errorf("%v: %d PAC failures in benign run", s, c.PACFailures)
		}
	}
}

// TestCompatSchemeRunsOnV80: the compat build executes on a core without
// PAuth (hint forms degrade to NOPs) — §5.5.
func TestCompatSchemeRunsOnV80(t *testing.T) {
	cfg := &Config{Scheme: SchemeCamouflageCompat}
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		a.BL("f")
		a.I(insn.HLT(0))
		cfg.EmitFunc(a, FuncSpec{Name: "f", ALU: 1})
	}, false) // ARMv8.0
	if c.X[10] != 1 {
		t.Fatal("function body did not run on v8.0")
	}
}

// TestNonCompatSchemeFaultsOnV80 is the inverse control: the plain
// Camouflage build uses register-form PAuth and must trap on v8.0.
func TestNonCompatSchemeFaultsOnV80(t *testing.T) {
	cfg := &Config{Scheme: SchemeCamouflage}
	a := asm.New()
	a.Label("main")
	a.BL("f")
	a.I(insn.HLT(0))
	cfg.EmitFunc(a, FuncSpec{Name: "f", ALU: 1})
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Features{PAuth: false})
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c.SetSP(1, stackTop)
	c.VBAR = uint64(pac.KernelBase) | 0x0030_0000 // empty vectors: will spin
	c.PC = img.Symbols["main"]
	stop := c.Run(100)
	// Execution must not reach HLT 0 — it traps into the (unmapped)
	// vector area and keeps faulting.
	if stop.Kind == cpu.StopHLT && stop.Code == 0 {
		t.Fatal("register-form PAuth executed on a v8.0 core")
	}
}

// TestFigure2Ordering measures per-call overhead for each scheme and pins
// the paper's Figure 2 ordering: baseline < Clang-SP < Camouflage < PARTS.
func TestFigure2Ordering(t *testing.T) {
	measure := func(s Scheme) uint64 {
		cfg := &Config{Scheme: s}
		c := buildAndRun(t, func(a *asm.Assembler) {
			a.Label("main")
			a.I(insn.MOVZ(insn.X5, 64, 0)) // iterations
			a.Label("loop")
			a.BL("f")
			a.I(insn.SUBi(insn.X5, insn.X5, 1))
			a.CBNZ(insn.X5, "loop")
			a.I(insn.HLT(0))
			cfg.EmitFunc(a, FuncSpec{Name: "f", ALU: 1})
		}, true)
		return c.Cycles
	}
	base := measure(SchemeNone)
	clang := measure(SchemeClangSP)
	camo := measure(SchemeCamouflage)
	parts := measure(SchemePARTS)
	if !(base < clang && clang < camo && camo < parts) {
		t.Fatalf("Figure 2 ordering violated: none=%d clang=%d camo=%d parts=%d",
			base, clang, camo, parts)
	}
	// Per-call deltas must match the analytic model.
	perCall := func(total uint64) uint64 { return (total - base) / 64 }
	for s, want := range map[Scheme]uint64{
		SchemeClangSP:    ExpectedOverheadCycles(SchemeClangSP),
		SchemeCamouflage: ExpectedOverheadCycles(SchemeCamouflage),
		SchemePARTS:      ExpectedOverheadCycles(SchemePARTS),
	} {
		var got uint64
		switch s {
		case SchemeClangSP:
			got = perCall(clang)
		case SchemeCamouflage:
			got = perCall(camo)
		case SchemePARTS:
			got = perCall(parts)
		}
		if got != want {
			t.Errorf("%v: measured %d cycles/call, analytic %d", s, got, want)
		}
	}
}

// TestROPCaughtByEachPAuthScheme: the frame-record overwrite is defeated
// by every PAuth scheme and succeeds under SchemeNone.
func TestROPCaughtByEachPAuthScheme(t *testing.T) {
	build := func(cfg *Config) func(a *asm.Assembler) {
		return func(a *asm.Assembler) {
			a.Label("main")
			a.BL("victim")
			a.I(insn.HLT(0))
			a.Label("victim")
			cfg.Prologue(a, "victim")
			a.MOVAddr(insn.X9, "gadget")
			a.I(insn.STR(insn.X9, insn.SP, 8)) // overwrite saved LR
			cfg.Epilogue(a, "victim")
			a.Label("gadget")
			a.I(insn.MOVZ(insn.X7, 0xBAD, 0))
			a.I(insn.HLT(0x77))
		}
	}
	for _, s := range []Scheme{SchemeClangSP, SchemePARTS, SchemeCamouflage, SchemeCamouflageCompat} {
		cfg := &Config{Scheme: s}
		a := asm.New()
		build(cfg)(a)
		img, err := a.Link(map[string]uint64{".text": textBase})
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(cpu.Features{PAuth: true})
		c.SCTLR = insn.SCTLRPAuthAll
		for _, sec := range img.Sections {
			c.Bus.RAM.WriteBytes(sec.Base, sec.Bytes)
		}
		c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 0x33, Lo: 0x44})
		c.SetSP(1, stackTop)
		c.PC = img.Symbols["main"]
		stop := c.Run(10000)
		if stop.Kind == cpu.StopHLT && stop.Code == 0x77 {
			t.Errorf("%v: gadget executed; ROP not caught", s)
			continue
		}
		if c.PACFailures != 1 {
			t.Errorf("%v: PACFailures = %d, want 1", s, c.PACFailures)
		}
	}
	// Control: unprotected build lets the gadget run.
	cfg := ConfigNone()
	c := buildAndRun(t, build(cfg), true)
	if c.X[7] != 0xBAD {
		t.Error("SchemeNone: gadget did not run; control broken")
	}
}

// TestSignedFieldRoundTrip: Listing 4 setter/getter on a struct-file-like
// object in kernel memory.
func TestSignedFieldRoundTrip(t *testing.T) {
	tc := pac.TypeConst("file", "f_ops")
	cfg := ConfigFull()
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		// x0 = object, x1 = ops pointer value.
		a.I(insn.MOVImm64(insn.X0, objBase)...)
		a.I(insn.MOVImm64(insn.X1, objBase|0x4000)...)
		cfg.SignedFieldStore(a, insn.X0, insn.X1, 40, tc, false)
		cfg.SignedFieldLoad(a, insn.X2, insn.X0, 40, tc, false)
		a.I(insn.HLT(0))
	}, true)
	if c.PACFailures != 0 {
		t.Fatalf("PACFailures = %d", c.PACFailures)
	}
	if c.X[2] != objBase|0x4000 {
		t.Fatalf("getter returned %#x, want %#x", c.X[2], objBase|0x4000)
	}
	// The stored form must differ from the raw pointer (it carries a PAC).
	stored := c.Bus.RAM.Read64(objBase + 40)
	if stored == objBase|0x4000 {
		t.Fatal("stored pointer unsigned")
	}
}

// TestSignedFieldSwapDetected: transplanting a signed pointer from one
// object to another fails (the modifier binds the containing address,
// §4.3).
func TestSignedFieldSwapDetected(t *testing.T) {
	tc := pac.TypeConst("file", "f_ops")
	cfg := ConfigFull()
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		a.I(insn.MOVImm64(insn.X0, objBase)...)        // object A
		a.I(insn.MOVImm64(insn.X3, objBase|0x2000)...) // object B
		a.I(insn.MOVImm64(insn.X1, objBase|0x4000)...) // ops value
		cfg.SignedFieldStore(a, insn.X0, insn.X1, 40, tc, false)
		// Attacker copies A's signed slot into B byte-for-byte.
		a.I(insn.LDR(insn.X4, insn.X0, 40))
		a.I(insn.STR(insn.X4, insn.X3, 40))
		// Victim loads through B.
		cfg.SignedFieldLoad(a, insn.X2, insn.X3, 40, tc, false)
		a.I(insn.HLT(0))
	}, true)
	if c.PACFailures != 1 {
		t.Fatalf("PACFailures = %d, want 1 (cross-object transplant)", c.PACFailures)
	}
	if c.Signer.Config().IsCanonical(c.X[2]) {
		t.Fatalf("transplanted pointer authenticated to %#x", c.X[2])
	}
}

// TestSignedFieldTypeConstSegregates: the same address signed under a
// different type·member constant does not authenticate (§4.3: "segregates
// pointers at the same address based on their type").
func TestSignedFieldTypeConstSegregates(t *testing.T) {
	tcA := pac.TypeConst("file", "f_ops")
	tcB := pac.TypeConst("file", "f_cred")
	cfg := ConfigFull()
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		a.I(insn.MOVImm64(insn.X0, objBase)...)
		a.I(insn.MOVImm64(insn.X1, objBase|0x4000)...)
		cfg.SignedFieldStore(a, insn.X0, insn.X1, 40, tcA, false)
		cfg.SignedFieldLoad(a, insn.X2, insn.X0, 40, tcB, false)
		a.I(insn.HLT(0))
	}, true)
	if c.PACFailures != 1 {
		t.Fatalf("PACFailures = %d, want 1 (type-constant mismatch)", c.PACFailures)
	}
}

// TestDFIDisabledEmitsPlainAccess: with DFI off the getter is a plain
// load (no auth, no failure on transplant) — the baseline behaviour.
func TestDFIDisabledEmitsPlainAccess(t *testing.T) {
	tc := pac.TypeConst("file", "f_ops")
	cfg := ConfigBackward() // DFI off
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		a.I(insn.MOVImm64(insn.X0, objBase)...)
		a.I(insn.MOVImm64(insn.X1, objBase|0x4000)...)
		cfg.SignedFieldStore(a, insn.X0, insn.X1, 40, tc, false)
		cfg.SignedFieldLoad(a, insn.X2, insn.X0, 40, tc, false)
		a.I(insn.HLT(0))
	}, true)
	if c.X[2] != objBase|0x4000 {
		t.Fatalf("plain load = %#x", c.X[2])
	}
	stored := c.Bus.RAM.Read64(objBase + 40)
	if stored != objBase|0x4000 {
		t.Fatal("pointer signed despite DFI off")
	}
}

// TestCallTree: EmitFunc composes into a call tree that executes.
func TestCallTree(t *testing.T) {
	cfg := ConfigFull()
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		a.BL("parent")
		a.I(insn.HLT(0))
		cfg.EmitFunc(a, FuncSpec{Name: "parent", ALU: 1, Calls: []string{"child1", "child2"}})
		cfg.EmitFunc(a, FuncSpec{Name: "child1", ALU: 2, Loads: 1, Stores: 1})
		cfg.EmitFunc(a, FuncSpec{Name: "child2", ALU: 3})
	}, true)
	if c.X[10] != 6 {
		t.Fatalf("call tree executed %d ALU ops, want 6", c.X[10])
	}
	if c.PACFailures != 0 {
		t.Fatalf("PACFailures = %d", c.PACFailures)
	}
}

// TestLeafFunctionUninstrumented: leaves have no prologue, hence zero
// overhead (§6.1.2).
func TestLeafFunctionUninstrumented(t *testing.T) {
	cfgN := ConfigNone()
	cfgC := ConfigBackward()
	count := func(cfg *Config) uint64 {
		c := buildAndRun(t, func(a *asm.Assembler) {
			a.Label("main")
			a.I(insn.MOVImm64(insn.X11, objBase)...) // leaf scratch base
			a.BL("leaf")
			a.I(insn.HLT(0))
			cfg.EmitFunc(a, FuncSpec{Name: "leaf", ALU: 2, Leaf: true})
		}, true)
		return c.Cycles
	}
	if count(cfgN) != count(cfgC) {
		t.Fatal("leaf function cost differs across schemes; leaves must be uninstrumented")
	}
}

func TestInstrumentationInstrs(t *testing.T) {
	if InstrumentationInstrs(SchemeNone) != 0 {
		t.Error("SchemeNone adds instructions")
	}
	if !(InstrumentationInstrs(SchemeClangSP) < InstrumentationInstrs(SchemeCamouflage) &&
		InstrumentationInstrs(SchemeCamouflage) < InstrumentationInstrs(SchemePARTS)) {
		t.Error("instruction-count ordering violated")
	}
}

// TestFramePushPopMacros covers §5.2's hand-written-assembly path: the
// frame_push/frame_pop macros protect functions the compiler never sees
// (SIMD routines, cpu_switch_to) exactly like compiler-emitted frames.
func TestFramePushPopMacros(t *testing.T) {
	cfg := ConfigBackward()
	c := buildAndRun(t, func(a *asm.Assembler) {
		a.Label("main")
		a.BL("simd_routine")
		a.I(insn.HLT(0))
		// "Hand-written" function using the macros instead of EmitFunc.
		a.Label("simd_routine")
		cfg.FramePush(a, "simd_routine")
		a.I(insn.MOVZ(insn.X0, 0x51, 0))
		cfg.FramePop(a, "simd_routine")
	}, true)
	if c.X[0] != 0x51 || c.PACFailures != 0 {
		t.Fatalf("x0=%#x failures=%d", c.X[0], c.PACFailures)
	}

	// And the macro-protected frame resists the same smash as compiler
	// frames: overwrite the saved LR mid-function.
	a2 := asm.New()
	a2.Label("main")
	a2.BL("victim")
	a2.I(insn.HLT(0))
	a2.Label("victim")
	cfg.FramePush(a2, "victim")
	a2.MOVAddr(insn.X9, "gadget")
	a2.I(insn.STR(insn.X9, insn.SP, 8))
	cfg.FramePop(a2, "victim")
	a2.Label("gadget")
	a2.I(insn.HLT(0x77))
	img, err := a2.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c2 := cpu.New(cpu.Features{PAuth: true})
	c2.SCTLR = insn.SCTLRPAuthAll
	for _, sec := range img.Sections {
		c2.Bus.RAM.WriteBytes(sec.Base, sec.Bytes)
	}
	c2.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 3, Lo: 4})
	c2.SetSP(1, stackTop)
	c2.PC = img.Symbols["main"]
	stop := c2.Run(10000)
	if stop.Kind == cpu.StopHLT && stop.Code == 0x77 {
		t.Fatal("gadget ran through a frame_push-protected frame")
	}
	if c2.PACFailures != 1 {
		t.Fatalf("PACFailures = %d", c2.PACFailures)
	}
}
