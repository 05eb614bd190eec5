package cpu

import (
	"fmt"

	"camouflage/internal/insn"
	"camouflage/internal/mmu"
	"camouflage/internal/obs"
	"camouflage/internal/pac"
)

// seqSucc[k] is the successor offset, from the entry VA, of the k-th
// instruction of a straight-line run: a block's one-block view stays on
// the block only while every instruction advances the PC sequentially.
var seqSucc [maxBlockInstrs]uint64

func init() {
	for k := range seqSucc {
		seqSucc[k] = uint64(k+1) * insn.Size
	}
}

// directBranch reports whether op is a direct (immediate-target) branch
// whose taken exit may be fused into a trace: B, BL, B.cond, CBZ, CBNZ.
// Indirect branches (BR/BLR/RET) fuse only to a guessed target
// (buildTrace); authenticated branches (the *AA/*AB forms), ERET, SVC
// and HLT always re-enter through the dispatch loop.
func directBranch(op insn.Op) bool {
	switch op {
	case insn.OpB, insn.OpBL, insn.OpBcond, insn.OpCBZ, insn.OpCBNZ:
		return true
	}
	return false
}

// captureRegime snapshots the translation regime a fetch at va depends
// on (§3 contract — see regime).
func (c *CPU) captureRegime(va uint64) regime {
	m := c.MMU
	r := regime{mmuOn: m.Enabled, el: int8(c.EL)}
	if m.Enabled {
		r.tt1 = m.KernelSide(va)
		table := m.TT0
		if r.tt1 {
			table = m.TT1
		}
		r.table, r.tgen = table, table.Gen()
		r.s2gen, r.s2en = m.S2.Gen(), m.S2.Enabled
	}
	return r
}

// regimeHolds reports whether the translation regime still matches the
// snapshot r: the same EL and MMU enable and, with the MMU on, the same
// stage-1 table identity and generation for r's address side and the
// same stage-2 generation and enable.
func (c *CPU) regimeHolds(r *regime) bool {
	m := c.MMU
	if m.Enabled != r.mmuOn || int8(c.EL) != r.el {
		return false
	}
	if !r.mmuOn {
		return true
	}
	table := m.TT0
	if r.tt1 {
		table = m.TT1
	}
	return r.table == table && r.tgen == table.Gen() &&
		r.s2gen == m.S2.Gen() && r.s2en == m.S2.Enabled
}

// Run executes until the instruction budget is exhausted, a HLT retires,
// or an unrecoverable error occurs. The fast path is dispatch; the
// NoBlockCache baseline is the seed interpreter, runLegacy. Cycle and
// retirement accounting is identical on both.
func (c *CPU) Run(maxInstrs uint64) Stop {
	startCycles, startRetired := c.Cycles, c.Retired
	defer func() {
		totalCycles.Add(c.Cycles - startCycles)
		totalRetired.Add(c.Retired - startRetired)
		// Drain this core's observability cells into the shared
		// registry: scrapes read only the flushed accumulators, so a
		// concurrent /metrics never touches the plain cells the loop
		// bumps (DESIGN.md §11).
		c.flushObs()
	}()
	if c.NoBlockCache {
		return c.runLegacy(maxInstrs)
	}
	return c.dispatch(maxInstrs)
}

// dispatch is the fast path's block-entry loop. Each turn delivers a
// deliverable IRQ, then resolves the decoded block at PC: from the
// entry memo when its slot still validates, else through fetchBlock,
// memoizing the result in the slot right away. Translation and block
// lookup therefore happen at most once per block entry. The block then
// runs in runTrace — as its fused trace when the trace validates and
// the budget covers the trace body, else as a one-block view of itself:
// its own instructions with sequential successors, needing no regime
// check because the memo probe or the fetch has just validated it.
// Every decoded instruction retires inside runTrace.
//
// A memo slot is never followed blind: the slot's PC, the target
// block's generation cell and the §3 regime snapshot are re-checked on
// every hit, so a store into the block's page, a context switch,
// Map/Unmap, a stage-2 change or an EL change severs it.
//
//camo:hotpath
func (c *CPU) dispatch(maxInstrs uint64) Stop {
	for n := uint64(0); n < maxInstrs; {
		if c.IRQPending && !c.IRQMasked && c.EL == 0 {
			c.IRQPending = false
			c.TakeException(VecIRQLower, ECUnknown, 0, 0)
			n++
			continue
		}
		entryVA := c.PC
		slot := &c.entryMemo[(entryVA>>2)&(entryMemoSize-1)]
		b := slot.to
		if b != nil && slot.pc == entryVA && b.gen == b.genp.Load() && c.regimeHolds(&slot.rg) {
			c.EntryMemoHits++
		} else {
			var fault *mmu.Fault
			var err error
			b, fault, err = c.fetchBlock()
			if err != nil {
				return Stop{Kind: StopError, Err: err}
			}
			if fault != nil {
				c.instructionAbort(fault)
				n++
				continue
			}
			*slot = blockEntry{to: b, pc: entryVA, rg: c.captureRegime(entryVA)}
		}
		// A hot block carries a fused trace. One whose constituent code
		// went stale is dropped for a rebuild; a transient regime
		// mismatch (context switch) keeps it.
		if t := b.tr; t != nil {
			if c.traceValid(t, entryVA) {
				if maxInstrs-n >= uint64(len(t.instrs)) {
					c.TraceFollows++
					if stop, done := c.runTrace(b, t, &n, maxInstrs); done {
						return stop
					}
					continue
				}
			} else if traceStale(t) {
				b.tr, b.heat = nil, 0
				c.obsLocal.V[obs.CTraceSeverStale]++
			} else {
				c.obsLocal.V[obs.CTraceSeverEntry]++
			}
		} else if b.heat++; b.heat == hotThreshold {
			c.buildTrace(b, entryVA)
		}
		if stop, done := c.runTrace(b, nil, &n, maxInstrs); done {
			return stop
		}
	}
	return Stop{Kind: StopLimit}
}

// runLegacy is the seed interpreter (NoBlockCache baseline): one
// translate, per-word decode-cache lookup and execute per instruction.
func (c *CPU) runLegacy(maxInstrs uint64) Stop {
	for n := uint64(0); n < maxInstrs; n++ {
		if c.IRQPending && !c.IRQMasked && c.EL == 0 {
			c.IRQPending = false
			c.TakeException(VecIRQLower, ECUnknown, 0, 0)
			continue
		}
		ins, fault, err := c.fetchLegacy()
		if err != nil {
			return Stop{Kind: StopError, Err: err}
		}
		if fault != nil {
			c.instructionAbort(fault)
			continue
		}
		if ins.Op == insn.OpInvalid {
			c.undefined()
			continue
		}
		if stop, done := c.execute(&ins); done {
			return stop
		}
	}
	return Stop{Kind: StopLimit}
}

// instructionAbort raises a prefetch abort for a fetch fault.
func (c *CPU) instructionAbort(f *mmu.Fault) {
	vec := uint64(VecSyncLower)
	ec := uint64(ECIAbortLower)
	if c.EL == 1 {
		vec = VecSyncCurrent
		ec = ECIAbortSame
	}
	c.TakeException(vec, ec, issFor(f), f.VA)
}

// dataAbort raises a data abort for a load/store fault.
func (c *CPU) dataAbort(f *mmu.Fault) {
	vec := uint64(VecSyncLower)
	ec := uint64(ECDAbortLower)
	if c.EL == 1 {
		vec = VecSyncCurrent
		ec = ECDAbortSame
	}
	c.TakeException(vec, ec, issFor(f), f.VA)
}

// undefined raises an undefined-instruction exception.
func (c *CPU) undefined() {
	vec := uint64(VecSyncLower)
	if c.EL == 1 {
		vec = VecSyncCurrent
	}
	c.TakeException(vec, ECUnknown, 0, 0)
}

// issFor packs a simplified fault-status code into the ISS: the mmu fault
// kind in the low bits (the real architecture uses a finer DFSC encoding;
// the kernel model only needs to distinguish the four kinds).
func issFor(f *mmu.Fault) uint64 {
	return uint64(f.Kind)
}

// FaultKindFromISS recovers the mmu fault kind from a syndrome value.
func FaultKindFromISS(iss uint64) mmu.FaultKind {
	return mmu.FaultKind(iss & 0x7)
}

// execute runs one decoded instruction. PC has not yet been advanced.
// The pointer argument avoids copying the ~24-byte Instr on every
// dispatch; execute never mutates or retains it.
func (c *CPU) execute(i *insn.Instr) (Stop, bool) {
	cy := costTab[i.Op]
	next := c.PC + insn.Size

	switch i.Op {
	case insn.OpNOP, insn.OpISB:
		// no architectural effect

	case insn.OpHLT:
		c.Cycles += cy
		c.Retired++
		c.PC = next
		return Stop{Kind: StopHLT, Code: uint16(i.Imm)}, true

	case insn.OpMOVZ:
		v := uint64(uint16(i.Imm)) << i.Shift
		if !i.SF {
			v = uint64(uint32(v))
		}
		c.SetReg(i.Rd, v)
	case insn.OpMOVN:
		v := ^(uint64(uint16(i.Imm)) << i.Shift)
		if !i.SF {
			v = uint64(uint32(v))
		}
		c.SetReg(i.Rd, v)
	case insn.OpMOVK:
		v := c.Reg(i.Rd)
		v = v&^(uint64(0xFFFF)<<i.Shift) | uint64(uint16(i.Imm))<<i.Shift
		if !i.SF {
			v = uint64(uint32(v))
		}
		c.SetReg(i.Rd, v)

	case insn.OpADR:
		c.SetReg(i.Rd, c.PC+uint64(i.Imm))
	case insn.OpADRP:
		c.SetReg(i.Rd, c.PC&^uint64(4095)+uint64(i.Imm)*4096)

	case insn.OpADDi:
		c.setRegSP(i.Rd, c.regSP(i.Rn)+uint64(i.Imm)<<i.Shift)
	case insn.OpSUBi:
		c.setRegSP(i.Rd, c.regSP(i.Rn)-uint64(i.Imm)<<i.Shift)

	case insn.OpBFM:
		// BFI/BFXIL semantics for the 64-bit form.
		r := uint(i.ImmR)
		s := uint(i.ImmS)
		src := c.Reg(i.Rn)
		dst := c.Reg(i.Rd)
		if s >= r {
			// BFXIL: copy bits [s:r] of src to [s-r:0] of dst.
			width := s - r + 1
			maskW := maskBits(width)
			dst = dst&^maskW | (src >> r & maskW)
		} else {
			// BFI: copy bits [s:0] of src into dst at bit 64-r.
			width := s + 1
			lsb := 64 - r
			maskW := maskBits(width)
			dst = dst&^(maskW<<lsb) | (src&maskW)<<lsb
		}
		c.SetReg(i.Rd, dst)
	case insn.OpUBFM:
		r := uint(i.ImmR)
		s := uint(i.ImmS)
		src := c.Reg(i.Rn)
		var v uint64
		if s >= r {
			// UBFX / LSR.
			v = src >> r & maskBits(s-r+1)
		} else {
			// LSL / UBFIZ.
			v = (src & maskBits(s+1)) << (64 - r)
		}
		c.SetReg(i.Rd, v)
	case insn.OpSBFM:
		r := uint(i.ImmR)
		s := uint(i.ImmS)
		src := c.Reg(i.Rn)
		if s >= r {
			width := s - r + 1
			v := src >> r & maskBits(width)
			// sign-extend from bit width-1
			if v&(1<<(width-1)) != 0 {
				v |= ^maskBits(width)
			}
			c.SetReg(i.Rd, v)
		} else {
			c.SetReg(i.Rd, 0) // SBFIZ unsupported; deterministic zero
		}

	case insn.OpADDr:
		c.SetReg(i.Rd, c.Reg(i.Rn)+c.Reg(i.Rm)<<i.Shift)
	case insn.OpSUBr:
		c.SetReg(i.Rd, c.Reg(i.Rn)-c.Reg(i.Rm)<<i.Shift)
	case insn.OpSUBSr:
		a := c.Reg(i.Rn)
		b := c.Reg(i.Rm) << i.Shift
		res := a - b
		c.SetReg(i.Rd, res)
		c.N = res>>63 == 1
		c.Z = res == 0
		c.C = a >= b
		c.V = (a>>63 != b>>63) && (res>>63 != a>>63)
	case insn.OpANDr:
		c.SetReg(i.Rd, c.Reg(i.Rn)&(c.Reg(i.Rm)<<i.Shift))
	case insn.OpORRr:
		c.SetReg(i.Rd, c.Reg(i.Rn)|c.Reg(i.Rm)<<i.Shift)
	case insn.OpEORr:
		c.SetReg(i.Rd, c.Reg(i.Rn)^c.Reg(i.Rm)<<i.Shift)
	case insn.OpANDSr:
		res := c.Reg(i.Rn) & (c.Reg(i.Rm) << i.Shift)
		c.SetReg(i.Rd, res)
		c.N = res>>63 == 1
		c.Z = res == 0
		c.C = false
		c.V = false
	case insn.OpMADD:
		c.SetReg(i.Rd, c.Reg(i.Ra)+c.Reg(i.Rn)*c.Reg(i.Rm))
	case insn.OpUDIV:
		d := c.Reg(i.Rm)
		if d == 0 {
			c.SetReg(i.Rd, 0)
		} else {
			c.SetReg(i.Rd, c.Reg(i.Rn)/d)
		}
	case insn.OpLSLV:
		c.SetReg(i.Rd, c.Reg(i.Rn)<<(c.Reg(i.Rm)&63))
	case insn.OpLSRV:
		c.SetReg(i.Rd, c.Reg(i.Rn)>>(c.Reg(i.Rm)&63))
	case insn.OpCSEL:
		if c.condHolds(i.Cond) {
			c.SetReg(i.Rd, c.Reg(i.Rn))
		} else {
			c.SetReg(i.Rd, c.Reg(i.Rm))
		}

	case insn.OpLDR, insn.OpLDRW, insn.OpLDRB:
		size := 8
		if i.Op == insn.OpLDRW {
			size = 4
		} else if i.Op == insn.OpLDRB {
			size = 1
		}
		v, f, err := c.loadMem(c.regSP(i.Rn)+uint64(i.Imm), size)
		if err != nil {
			return Stop{Kind: StopError, Err: err}, true
		}
		if f != nil {
			c.dataAbort(f)
			return Stop{}, false
		}
		c.SetReg(i.Rd, v)

	case insn.OpSTR, insn.OpSTRW, insn.OpSTRB:
		size := 8
		if i.Op == insn.OpSTRW {
			size = 4
		} else if i.Op == insn.OpSTRB {
			size = 1
		}
		f, err := c.storeMem(c.regSP(i.Rn)+uint64(i.Imm), size, c.Reg(i.Rd))
		if err != nil {
			return Stop{Kind: StopError, Err: err}, true
		}
		if f != nil {
			c.dataAbort(f)
			return Stop{}, false
		}

	case insn.OpLDRpost:
		base := c.regSP(i.Rn)
		v, f, err := c.loadMem(base, 8)
		if err != nil {
			return Stop{Kind: StopError, Err: err}, true
		}
		if f != nil {
			c.dataAbort(f)
			return Stop{}, false
		}
		c.SetReg(i.Rd, v)
		c.setRegSP(i.Rn, base+uint64(i.Imm))

	case insn.OpSTRpre:
		addr := c.regSP(i.Rn) + uint64(i.Imm)
		f, err := c.storeMem(addr, 8, c.Reg(i.Rd))
		if err != nil {
			return Stop{Kind: StopError, Err: err}, true
		}
		if f != nil {
			c.dataAbort(f)
			return Stop{}, false
		}
		c.setRegSP(i.Rn, addr)

	case insn.OpLDP, insn.OpLDPpost:
		base := c.regSP(i.Rn)
		addr := base
		if i.Op == insn.OpLDP {
			addr = base + uint64(i.Imm)
		}
		v1, f, err := c.loadMem(addr, 8)
		if err != nil {
			return Stop{Kind: StopError, Err: err}, true
		}
		if f == nil {
			var v2 uint64
			v2, f, err = c.loadMem(addr+8, 8)
			if err != nil {
				return Stop{Kind: StopError, Err: err}, true
			}
			if f == nil {
				c.SetReg(i.Rd, v1)
				c.SetReg(i.Rm, v2)
			}
		}
		if f != nil {
			c.dataAbort(f)
			return Stop{}, false
		}
		if i.Op == insn.OpLDPpost {
			c.setRegSP(i.Rn, base+uint64(i.Imm))
		}

	case insn.OpSTP, insn.OpSTPpre:
		base := c.regSP(i.Rn)
		addr := base + uint64(i.Imm)
		f, err := c.storeMem(addr, 8, c.Reg(i.Rd))
		if err != nil {
			return Stop{Kind: StopError, Err: err}, true
		}
		if f == nil {
			f, err = c.storeMem(addr+8, 8, c.Reg(i.Rm))
			if err != nil {
				return Stop{Kind: StopError, Err: err}, true
			}
		}
		if f != nil {
			c.dataAbort(f)
			return Stop{}, false
		}
		if i.Op == insn.OpSTPpre {
			c.setRegSP(i.Rn, addr)
		}

	case insn.OpB:
		next = c.PC + uint64(i.Imm)
	case insn.OpBL:
		c.X[insn.LR] = c.PC + insn.Size
		next = c.PC + uint64(i.Imm)
	case insn.OpBcond:
		if c.condHolds(i.Cond) {
			next = c.PC + uint64(i.Imm)
		}
	case insn.OpCBZ:
		if c.Reg(i.Rd) == 0 {
			next = c.PC + uint64(i.Imm)
		}
	case insn.OpCBNZ:
		if c.Reg(i.Rd) != 0 {
			next = c.PC + uint64(i.Imm)
		}
	case insn.OpBR:
		next = c.Reg(i.Rn)
	case insn.OpBLR:
		c.X[insn.LR] = c.PC + insn.Size
		next = c.Reg(i.Rn)
	case insn.OpRET:
		next = c.Reg(i.Rn)

	case insn.OpPACIA, insn.OpPACIB, insn.OpPACDA, insn.OpPACDB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacSign(i.Rd, i.Rn, pacKey[i.Op])
	case insn.OpAUTIA, insn.OpAUTIB, insn.OpAUTDA, insn.OpAUTDB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacAuth(i.Rd, i.Rn, pacKey[i.Op])
	case insn.OpPACIZA, insn.OpPACIZB, insn.OpPACDZA, insn.OpPACDZB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		id := pacKey[i.Op]
		if c.pauthEnabled(id) {
			c.SetReg(i.Rd, c.Signer.Sign(c.Reg(i.Rd), 0, id))
		}
	case insn.OpAUTIZA, insn.OpAUTIZB, insn.OpAUTDZA, insn.OpAUTDZB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		id := pacKey[i.Op]
		if c.pauthEnabled(id) {
			out, ok := c.Signer.Auth(c.Reg(i.Rd), 0, id)
			if !ok {
				c.PACFailures++
			}
			c.SetReg(i.Rd, out)
		}

	case insn.OpXPACI, insn.OpXPACD:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.SetReg(i.Rd, c.Signer.Strip(c.Reg(i.Rd)))
	case insn.OpPACGA:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.SetReg(i.Rd, c.Signer.GenericMAC(c.Reg(i.Rn), c.Reg(i.Rm)))

	case insn.OpBLRAA, insn.OpBLRAB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		target := c.authBranchTarget(i.Rn, c.Reg(i.Rm), pacKey[i.Op])
		c.X[insn.LR] = c.PC + insn.Size
		next = target
	case insn.OpBRAA, insn.OpBRAB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		next = c.authBranchTarget(i.Rn, c.Reg(i.Rm), pacKey[i.Op])
	case insn.OpRETAA, insn.OpRETAB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		next = c.authBranchTarget(insn.LR, c.sp[c.EL], pacKey[i.Op])

	case insn.OpPACIA1716, insn.OpPACIB1716, insn.OpAUTIA1716, insn.OpAUTIB1716:
		// HINT space: NOP on pre-8.3 cores (§5.5), PAuth op on 8.3.
		if c.Feat.PAuth {
			switch i.Op {
			case insn.OpPACIA1716:
				c.pacSign(insn.X17, insn.X16, pac.KeyIA)
			case insn.OpPACIB1716:
				c.pacSign(insn.X17, insn.X16, pac.KeyIB)
			case insn.OpAUTIA1716:
				c.pacAuth(insn.X17, insn.X16, pac.KeyIA)
			case insn.OpAUTIB1716:
				c.pacAuth(insn.X17, insn.X16, pac.KeyIB)
			}
		} else {
			cy = costALU // plain NOP timing on v8.0
		}

	case insn.OpMSR:
		if err := c.WriteSys(i.Sys, c.Reg(i.Rd)); err != nil {
			c.undefined()
			return Stop{}, false
		}
	case insn.OpMRS:
		v, err := c.ReadSys(i.Sys)
		if err != nil {
			c.undefined()
			return Stop{}, false
		}
		c.SetReg(i.Rd, v)

	case insn.OpSVC:
		c.Cycles += cy
		c.Retired++
		c.PC = next
		vec := uint64(VecSyncLower)
		if c.EL == 1 {
			vec = VecSyncCurrent
		}
		c.TakeException(vec, ECSVC64, uint64(uint16(i.Imm)), 0)
		return Stop{}, false

	case insn.OpERET:
		c.Cycles += cy
		c.Retired++
		c.setPstate(c.SPSR)
		c.PC = c.ELR
		return Stop{}, false

	default:
		return Stop{Kind: StopError, Err: fmt.Errorf("cpu: unimplemented op %v at PC %#x", i.Op, c.PC)}, true
	}

	c.Cycles += cy
	c.Retired++
	c.PC = next
	return Stop{}, false
}

// pacKey maps each keyed PAuth op — the PAC*/AUT* register and
// zero-modifier forms and the authenticated branches — to its key: one
// array load, shared by execute and runTrace's inline cases.
var pacKey = [256]pac.KeyID{
	insn.OpPACIA: pac.KeyIA, insn.OpPACIB: pac.KeyIB,
	insn.OpPACDA: pac.KeyDA, insn.OpPACDB: pac.KeyDB,
	insn.OpAUTIA: pac.KeyIA, insn.OpAUTIB: pac.KeyIB,
	insn.OpAUTDA: pac.KeyDA, insn.OpAUTDB: pac.KeyDB,
	insn.OpPACIZA: pac.KeyIA, insn.OpPACIZB: pac.KeyIB,
	insn.OpPACDZA: pac.KeyDA, insn.OpPACDZB: pac.KeyDB,
	insn.OpAUTIZA: pac.KeyIA, insn.OpAUTIZB: pac.KeyIB,
	insn.OpAUTDZA: pac.KeyDA, insn.OpAUTDZB: pac.KeyDB,
	insn.OpBLRAA: pac.KeyIA, insn.OpBLRAB: pac.KeyIB,
	insn.OpBRAA: pac.KeyIA, insn.OpBRAB: pac.KeyIB,
	insn.OpRETAA: pac.KeyIA, insn.OpRETAB: pac.KeyIB,
}

// requirePAuth raises undefined-instruction on pre-8.3 cores and reports
// whether execution may continue.
func (c *CPU) requirePAuth() bool {
	if c.Feat.PAuth {
		return true
	}
	c.undefined()
	return false
}

// authBranchTarget authenticates the pointer in rn with the given modifier
// and returns the branch target (poisoned and fault-bound on failure).
func (c *CPU) authBranchTarget(rn insn.Reg, modifier uint64, id pac.KeyID) uint64 {
	v := c.Reg(rn)
	if !c.pauthEnabled(id) {
		return v
	}
	out, ok := c.Signer.Auth(v, modifier, id)
	if !ok {
		c.PACFailures++
	}
	return out
}

func (c *CPU) condHolds(cc insn.Cond) bool {
	switch cc {
	case insn.EQ:
		return c.Z
	case insn.NE:
		return !c.Z
	case insn.CS:
		return c.C
	case insn.CC:
		return !c.C
	case insn.MI:
		return c.N
	case insn.PL:
		return !c.N
	case insn.VS:
		return c.V
	case insn.VC:
		return !c.V
	case insn.HI:
		return c.C && !c.Z
	case insn.LS:
		return !c.C || c.Z
	case insn.GE:
		return c.N == c.V
	case insn.LT:
		return c.N != c.V
	case insn.GT:
		return !c.Z && c.N == c.V
	case insn.LE:
		return c.Z || c.N != c.V
	}
	return true // AL, NV
}

func maskBits(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<w - 1
}
