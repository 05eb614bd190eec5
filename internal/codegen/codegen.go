// Package codegen is the compiler stand-in: it emits instrumented function
// prologues and epilogues for each return-address protection scheme the
// paper compares (Figure 2), the authenticated getter/setter sequences for
// forward-edge CFI and DFI (Listing 4), and parametrised synthetic
// functions used to build realistic kernel call trees for the lmbench and
// workload reproductions.
//
// The paper's prototype patched LLVM 8.0; the sequences emitted here are
// instruction-for-instruction the ones shown in the paper's listings.
package codegen

import (
	"camouflage/internal/asm"
	"camouflage/internal/insn"
	"camouflage/internal/pac"
)

// Scheme selects the return-address (backward-edge) instrumentation.
type Scheme int

// Schemes, in the order Figure 2 presents them.
const (
	// SchemeNone emits the plain Listing-1 prologue/epilogue.
	SchemeNone Scheme = iota
	// SchemeClangSP is Listing 2: modifier = SP (Qualcomm/Clang).
	SchemeClangSP
	// SchemePARTS is the PARTS construction: modifier = 16-bit SP ∥
	// 48-bit LTO function id, materialised with a move-wide chain.
	SchemePARTS
	// SchemeCamouflage is Listing 3: modifier = 32-bit SP ∥ 32-bit
	// function address taken from PC via ADR.
	SchemeCamouflage
	// SchemeCamouflageCompat is the §5.5 backwards-compatible variant:
	// the same modifier, but signing through the NOP-space PACIB1716 /
	// AUTIB1716 with x16/x17 staging, so the binary runs on ARMv8.0.
	SchemeCamouflageCompat
)

// String returns the Figure 2 label.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeClangSP:
		return "SP (Clang)"
	case SchemePARTS:
		return "PARTS"
	case SchemeCamouflage:
		return "Camouflage"
	case SchemeCamouflageCompat:
		return "Camouflage/compat"
	}
	return "scheme?"
}

// Config is the per-build instrumentation configuration. The protection
// levels of Figures 3 and 4 are listed once, in core's build table.
type Config struct {
	// Scheme is the backward-edge scheme.
	Scheme Scheme
	// ForwardCFI signs writable function pointers with key IA (§4.4).
	ForwardCFI bool
	// DFI signs data pointers to operations tables with key DB (§4.5).
	DFI bool
	// ZeroModifier is an ablation reproducing Apple's vtable scheme (§7):
	// pointers are signed with a zero modifier instead of the §4.3
	// object-address modifier. It preserves memcpy but is susceptible to
	// reuse attacks, which the attack harness demonstrates.
	ZeroModifier bool
	// NumCPUs is the number of simulated cores the build targets (0 and
	// 1 both mean uniprocessor). SMP builds (>1) address the per-CPU
	// block through TPIDR_EL0 instead of an absolute constant and lay
	// out one per-CPU frame per core; uniprocessor builds are
	// bit-identical to pre-SMP images.
	NumCPUs int
	// partsNextID assigns PARTS LTO function ids; it lives in the config
	// because PARTS requires whole-build LTO (§7) — one counter per link.
	partsNextID uint64
	partsIDs    map[string]uint64
}

// ConfigNone returns the baseline build.
func ConfigNone() *Config { return &Config{Scheme: SchemeNone} }

// ConfigBackward returns the backward-edge-only build.
func ConfigBackward() *Config { return &Config{Scheme: SchemeCamouflage} }

// ConfigFull returns the full-protection build (backward + forward + DFI).
func ConfigFull() *Config {
	return &Config{Scheme: SchemeCamouflage, ForwardCFI: true, DFI: true}
}

// CPUs returns the normalized core count (NumCPUs with 0 meaning 1).
func (c *Config) CPUs() int {
	if c.NumCPUs <= 1 {
		return 1
	}
	return c.NumCPUs
}

// partsID returns the next LTO function id.
func (c *Config) partsID() uint64 {
	c.partsNextID++
	return c.partsNextID
}

// Prologue emits the scheme's prologue for the function whose entry label
// is fnLabel. It must be emitted immediately at the function entry (the
// Camouflage ADR references the label). The emitted code ends with the
// frame record push of Listing 1. Returns the number of instructions
// added over the plain prologue, which Figure 2 measures.
func (c *Config) Prologue(a *asm.Assembler, fnLabel string) {
	switch c.Scheme {
	case SchemeNone:
	case SchemeClangSP:
		a.I(insn.PACIB(insn.LR, insn.SP))
	case SchemePARTS:
		c.emitPARTSModifier(a, insn.IP0, c.partsIDFor(fnLabel))
		a.I(insn.PACIB(insn.LR, insn.IP0))
	case SchemeCamouflage:
		emitCamouflageModifier(a, fnLabel)
		a.I(insn.PACIB(insn.LR, insn.IP0))
	case SchemeCamouflageCompat:
		emitCamouflageModifierCompat(a, fnLabel)
		a.I(insn.ORRr(insn.X17, insn.XZR, insn.LR, 0)) // mov x17, lr
		a.I(insn.PACIB1716())
		a.I(insn.ORRr(insn.LR, insn.XZR, insn.X17, 0)) // mov lr, x17
	}
	a.I(insn.STPpre(insn.FP, insn.LR, insn.SP, -16))
	a.I(insn.MOVSP(insn.FP, insn.SP))
}

// Epilogue emits the matching epilogue ending in RET.
func (c *Config) Epilogue(a *asm.Assembler, fnLabel string) {
	a.I(insn.LDPpost(insn.FP, insn.LR, insn.SP, 16))
	switch c.Scheme {
	case SchemeNone:
	case SchemeClangSP:
		a.I(insn.AUTIB(insn.LR, insn.SP))
	case SchemePARTS:
		c.emitPARTSModifier(a, insn.IP0, c.partsIDFor(fnLabel))
		a.I(insn.AUTIB(insn.LR, insn.IP0))
	case SchemeCamouflage:
		emitCamouflageModifier(a, fnLabel)
		a.I(insn.AUTIB(insn.LR, insn.IP0))
	case SchemeCamouflageCompat:
		emitCamouflageModifierCompat(a, fnLabel)
		a.I(insn.ORRr(insn.X17, insn.XZR, insn.LR, 0))
		a.I(insn.AUTIB1716())
		a.I(insn.ORRr(insn.LR, insn.XZR, insn.X17, 0))
	}
	a.I(insn.RET())
}

// emitCamouflageModifier emits Listing 3's modifier construction into IP0:
//
//	adr  ip0, function
//	mov  ip1, sp        ; SP is not a valid BFI operand
//	bfi  ip0, ip1, #32, #32
func emitCamouflageModifier(a *asm.Assembler, fnLabel string) {
	a.ADR(insn.IP0, fnLabel)
	a.I(insn.MOVSP(insn.IP1, insn.SP))
	a.I(insn.BFI(insn.IP0, insn.IP1, 32, 32))
}

// emitCamouflageModifierCompat builds the same modifier in x16 (the fixed
// modifier register of the 1716 hint forms).
func emitCamouflageModifierCompat(a *asm.Assembler, fnLabel string) {
	a.ADR(insn.X16, fnLabel)
	a.I(insn.MOVSP(insn.IP1, insn.SP))
	a.I(insn.BFI(insn.X16, insn.IP1, 32, 32))
}

// partsIDFor memoises PARTS function ids per label so prologue and
// epilogue agree; the table is per-Config, mirroring per-link LTO.
func (c *Config) partsIDFor(fnLabel string) uint64 {
	if c.partsIDs == nil {
		c.partsIDs = make(map[string]uint64)
	}
	if id, ok := c.partsIDs[fnLabel]; ok {
		return id
	}
	id := c.partsID()
	c.partsIDs[fnLabel] = id
	return id
}

// emitPARTSModifier materialises the PARTS modifier into rd:
//
//	movz rd, #id0            ; 48-bit LTO function id
//	movk rd, #id1, lsl #16
//	movk rd, #id2, lsl #32
//	mov  ip1, sp
//	bfi  rd, ip1, #48, #16   ; 16 low bits of SP in the top
func (c *Config) emitPARTSModifier(a *asm.Assembler, rd insn.Reg, id uint64) {
	a.I(insn.MOVZ(rd, uint16(id), 0))
	a.I(insn.MOVK(rd, uint16(id>>16), 16))
	a.I(insn.MOVK(rd, uint16(id>>32), 32))
	a.I(insn.MOVSP(insn.IP1, insn.SP))
	a.I(insn.BFI(rd, insn.IP1, 48, 16))
}

// --- pointer integrity getters and setters (Listing 4, §5.3) ---

// SignedFieldStore emits the set_<field>() pattern: sign ptrReg under the
// object modifier and store it at [objReg + off]. Uses key DB for data
// pointers and IA for function pointers, per §4.5. With the corresponding
// protection disabled it emits a plain store.
//
// Clobbers x9 (modifier scratch).
func (c *Config) SignedFieldStore(a *asm.Assembler, objReg, ptrReg insn.Reg, off uint16, tc uint16, fnPtr bool) {
	if c.protects(fnPtr) {
		switch {
		case c.ZeroModifier && fnPtr:
			a.I(insn.PACIZA(ptrReg))
		case c.ZeroModifier:
			a.I(insn.PACDZB(ptrReg))
		case fnPtr:
			emitObjectModifier(a, insn.X9, objReg, tc)
			a.I(insn.PACIA(ptrReg, insn.X9))
		default:
			emitObjectModifier(a, insn.X9, objReg, tc)
			a.I(insn.PACDB(ptrReg, insn.X9))
		}
	}
	a.I(insn.STR(ptrReg, objReg, off))
}

// SignedFieldLoad emits the <field>() getter pattern of Listing 4: load
// the signed pointer from [objReg + off] into dst and authenticate it.
//
//	ldr  dst, [obj, #off]
//	mov  w9, #tc
//	bfi  x9, obj, #16, #48
//	autdb dst, x9
//
// Clobbers x9.
func (c *Config) SignedFieldLoad(a *asm.Assembler, dst, objReg insn.Reg, off uint16, tc uint16, fnPtr bool) {
	a.I(insn.LDR(dst, objReg, off))
	if c.protects(fnPtr) {
		switch {
		case c.ZeroModifier && fnPtr:
			a.I(insn.AUTIZA(dst))
		case c.ZeroModifier:
			a.I(insn.AUTDZB(dst))
		case fnPtr:
			emitObjectModifier(a, insn.X9, objReg, tc)
			a.I(insn.AUTIA(dst, insn.X9))
		default:
			emitObjectModifier(a, insn.X9, objReg, tc)
			a.I(insn.AUTDB(dst, insn.X9))
		}
	}
}

// protects reports whether the config signs this class of pointer.
func (c *Config) protects(fnPtr bool) bool {
	if fnPtr {
		return c.ForwardCFI
	}
	return c.DFI
}

// emitObjectModifier emits the §4.3 modifier into rd:
//
//	mov w9, #tc            ; 16-bit type·member constant
//	bfi x9, obj, #16, #48  ; 48-bit object address above it
func emitObjectModifier(a *asm.Assembler, rd, objReg insn.Reg, tc uint16) {
	a.I(insn.MOVZW(rd, tc, 0))
	a.I(insn.BFI(rd, objReg, 16, 48))
}

// ObjectModifierValue mirrors emitObjectModifier for host-side computation
// (boot-time signing of the static pointer table, §4.6).
func ObjectModifierValue(objAddr uint64, tc uint16) uint64 {
	return pac.ObjectModifier(objAddr, tc)
}

// FramePush and FramePop are the paper's frame_push/frame_pop assembler
// macros (§5.2) for hand-written assembly such as cpu_switch_to and SIMD
// routines: functionally equivalent to the compiler-emitted sequences.
func (c *Config) FramePush(a *asm.Assembler, fnLabel string) { c.Prologue(a, fnLabel) }

// FramePop closes a FramePush frame.
func (c *Config) FramePop(a *asm.Assembler, fnLabel string) { c.Epilogue(a, fnLabel) }

// --- synthetic function generation for workload construction ---

// FuncSpec describes one synthetic kernel function. The lmbench and
// user-workload reproductions are call trees of these; the instrumentation
// overhead then scales with call-tree shape exactly as it does in the real
// kernel (§6.1.3: "the impact is due to a comparatively high rate of
// function calls to computation").
type FuncSpec struct {
	// Name is the function's label.
	Name string
	// ALU is the number of arithmetic body instructions.
	ALU int
	// Loads and Stores are data accesses performed on the stack frame.
	Loads, Stores int
	// Calls are direct callees, invoked in order.
	Calls []string
	// Leaf omits the frame record (and hence all instrumentation), as
	// compilers do for frameless leaves (§6.1.2: "except for functions
	// optimized to omit their stack frame").
	Leaf bool
}

// EmitFunc emits one synthetic function with the config's instrumentation.
// Non-leaf functions reserve a 32-byte local area addressed off SP.
func (c *Config) EmitFunc(a *asm.Assembler, spec FuncSpec) {
	if spec.Leaf {
		a.Label(spec.Name)
		emitBody(a, spec)
		a.I(insn.RET())
		return
	}
	a.Label(spec.Name)
	c.Prologue(a, spec.Name)
	a.I(insn.SUBi(insn.SP, insn.SP, 32))
	emitBody(a, spec)
	for _, callee := range spec.Calls {
		a.BL(callee)
	}
	a.I(insn.ADDi(insn.SP, insn.SP, 32))
	c.Epilogue(a, spec.Name)
}

func emitBody(a *asm.Assembler, spec FuncSpec) {
	for i := 0; i < spec.ALU; i++ {
		a.I(insn.ADDi(insn.X10, insn.X10, 1))
	}
	base := insn.Reg(insn.SP)
	if spec.Leaf {
		// Leaves have no reserved frame; use x11 as a scratch pointer the
		// caller provides (the generator wires x11 to a scratch page).
		base = insn.X11
	}
	for i := 0; i < spec.Stores; i++ {
		a.I(insn.STR(insn.X10, base, uint16(8*(i%4))))
	}
	for i := 0; i < spec.Loads; i++ {
		a.I(insn.LDR(insn.X12, base, uint16(8*(i%4))))
	}
}

// InstrumentationInstrs returns the number of extra instructions the
// scheme adds per protected function (prologue + epilogue), used by tests
// and the Figure 2 analysis.
func InstrumentationInstrs(s Scheme) int {
	switch s {
	case SchemeClangSP:
		return 2 // pacib + autib
	case SchemePARTS:
		return 12 // 2 × (movz+movk+movk+mov+bfi+pac)
	case SchemeCamouflage:
		return 8 // 2 × (adr+mov+bfi+pac)
	case SchemeCamouflageCompat:
		return 14 // 2 × (adr+mov+bfi+mov+hint+mov)
	}
	return 0
}

// ExpectedOverheadCycles returns the analytic per-call cycle overhead of a
// scheme under the cost model (PAuth = 4 cycles, ALU = 1), for
// cross-checking the measured Figure 2 results.
func ExpectedOverheadCycles(s Scheme) uint64 {
	switch s {
	case SchemeClangSP:
		return 2 * 4
	case SchemePARTS:
		// movz(1) + movk(1)×2 + mov(1) + bfi(1) + pac(4) per side.
		return 2 * (1 + 1 + 1 + 1 + 1 + 4)
	case SchemeCamouflage:
		// adr(1) + mov(1) + bfi(1) + pac(4) per side.
		return 2 * (1 + 1 + 1 + 4)
	case SchemeCamouflageCompat:
		// adr(1)+mov(1)+bfi(1)+mov(1)+hint(4)+mov(1) per side.
		return 2 * (1 + 1 + 1 + 1 + 4 + 1)
	}
	return 0
}
