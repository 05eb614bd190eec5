package cpu

import (
	"encoding/binary"
	"fmt"

	"camouflage/internal/insn"
	"camouflage/internal/mmu"
	"camouflage/internal/obs"
	"camouflage/internal/pac"
)

// storeClass marks the ops whose execution can write guest memory and
// therefore move execGen (guest stores, including stores into the
// service doorbell whose host handler may invalidate code). The block
// execution loop re-checks execGen only after these: nothing else can
// patch code mid-block, so the per-instruction re-check the seed paid is
// unnecessary. Indexed by insn.Op; sized for the whole uint8 op space.
var storeClass [256]bool

func init() {
	for _, op := range []insn.Op{
		insn.OpSTR, insn.OpSTRW, insn.OpSTRB,
		insn.OpSTRpre, insn.OpSTP, insn.OpSTPpre,
	} {
		storeClass[op] = true
	}
}

// directBranch reports whether op is a direct (immediate-target) branch
// whose taken exit may be chained: B, BL, B.cond, CBZ, CBNZ. Indirect
// and authenticated branches (BR/BLR/RET and the *AA/*AB forms), ERET,
// SVC and everything else always re-enter through fetchBlock.
func directBranch(op insn.Op) bool {
	switch op {
	case insn.OpB, insn.OpBL, insn.OpBcond, insn.OpCBZ, insn.OpCBNZ:
		return true
	}
	return false
}

// chainValid reports whether e may be followed right now: the PC must be
// the one the edge memoizes, the target block must still be valid
// (pageGen clause), and every translation-regime snapshot must still
// match (§3 contract — see chainEdge).
func (c *CPU) chainValid(e *chainEdge) bool {
	b := e.to
	if b == nil || c.PC != e.pc || b.gen != b.genp.Load() {
		return false
	}
	m := c.MMU
	if m.Enabled != e.mmuOn || int8(c.EL) != e.el {
		return false
	}
	if !e.mmuOn {
		return true
	}
	table := m.TT0
	if e.tt1 {
		table = m.TT1
	}
	return e.table == table && e.tgen == table.Gen() &&
		e.s2gen == m.S2.Gen() && e.s2en == m.S2.Enabled
}

// resolveChain memoizes "PC pc fetched block to" into slot, snapshotting
// the translation regime the resolution depended on.
func (c *CPU) resolveChain(slot *chainEdge, pc uint64, to *codeBlock) {
	m := c.MMU
	e := chainEdge{to: to, pc: pc, mmuOn: m.Enabled, el: int8(c.EL)}
	if m.Enabled {
		e.tt1 = m.KernelSide(pc)
		table := m.TT0
		if e.tt1 {
			table = m.TT1
		}
		e.table, e.tgen = table, table.Gen()
		e.s2gen, e.s2en = m.S2.Gen(), m.S2.Enabled
	}
	*slot = e
}

// Run executes until the instruction budget is exhausted, a HLT retires,
// or an unrecoverable error occurs.
//
// The fast path executes decoded basic blocks: translation and block
// lookup happen once per block entry, then the body runs from a flat
// []insn.Instr slice. The loop falls out of a block when an instruction
// branches or takes an exception (PC no longer advances sequentially),
// when the guest invalidates code the block could cover (execGen), when
// an IRQ becomes deliverable, or when the budget expires. Cycle and
// retirement accounting is identical to single-stepping.
//
// Block-to-block transitions follow direct chains where possible: a
// block that ran to completion and exited through its sequential fall-
// through or a direct branch follows (or lazily resolves) a chainEdge to
// its successor, skipping the per-entry Translate and block-map lookup.
// Chains are never followed blind — chainValid re-checks the §3
// snapshots on every follow — and break on IRQ delivery, budget expiry,
// exceptions, indirect/authenticated branches and any execGen movement.
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
	var (
		b       *codeBlock // current block; nil → fetch at loop top
		blockVA uint64     // VA the current block was entered at
		pending *chainEdge // slot awaiting resolution by the next fetch
		pendPC  uint64
	)
	for n := uint64(0); n < maxInstrs; {
		if c.IRQPending && !c.IRQMasked && c.EL == 0 {
			c.IRQPending = false
			c.TakeException(VecIRQLower, ECUnknown, 0, 0)
			n++
			b, pending = nil, nil
			continue
		}
		if b == nil {
			// Probe the indirect-branch target cache first: a computed
			// transfer (SVC/exception vector entry, ERET return, BR/BLR/
			// RET target — including a superblock side exit through one)
			// that already resolved to this PC under this regime skips
			// the Translate + block-map fetch entirely. A miss falls
			// through to the fetch, which resolves into the slot.
			if slot := &c.ibtb[(c.PC>>2)&(ibtbSize-1)]; c.chainValid(slot) {
				c.ChainFollows++
				b = slot.to
				blockVA = c.PC
				pending = nil
			} else if pending == nil {
				pending, pendPC = slot, c.PC
			}
		}
		if b == nil {
			var fault *mmu.Fault
			var err error
			b, fault, err = c.fetchBlock()
			if err != nil {
				return Stop{Kind: StopError, Err: err}
			}
			if fault != nil {
				c.instructionAbort(fault)
				n++
				b, pending = nil, nil
				continue
			}
			blockVA = c.PC
			if pending != nil {
				// Memoize the edge that led here. The PC guard keeps an
				// intervening abort from binding the wrong target; the
				// regime snapshot is taken now, so whatever changed since
				// the exit is what the edge records.
				if pendPC == c.PC {
					c.resolveChain(pending, c.PC, b)
				}
				pending = nil
			}
		}
		// Superblock path: a hot block carries a fused trace — run it if
		// its validity clauses hold and the budget covers one body (the
		// remainder runs block-by-block below). A trace whose constituent
		// code went stale is dropped for a rebuild; a transient regime
		// mismatch (context switch) keeps it.
		if t := b.tr; t != nil {
			if c.traceValid(t, blockVA) {
				if maxInstrs-n >= uint64(len(t.instrs)) {
					stop, done := c.runTrace(t, &n, maxInstrs)
					if done {
						return stop
					}
					b, pending = nil, nil
					continue
				}
			} else if traceStale(t) {
				b.tr, b.heat = nil, 0
				c.obsLocal.V[obs.CTraceSeverStale]++
			} else {
				// Transient regime mismatch (context switch): the
				// trace is kept but this entry was rejected.
				c.obsLocal.V[obs.CTraceSeverEntry]++
			}
		} else if b.heat++; b.heat == hotThreshold {
			c.buildTrace(b, blockVA)
		}
		startGen := c.cluster.execGen.Load()
		last := len(b.instrs) - 1
		completed := false
		idx := 0
		for ; idx <= last && n < maxInstrs; idx++ {
			ins := &b.instrs[idx]
			if ins.Op == insn.OpInvalid {
				c.undefined()
				n++
				break
			}
			pc := c.PC
			stop, done := c.execute(ins)
			n++
			if done {
				return stop
			}
			if c.PC != pc+insn.Size {
				// Branch taken, exception, or ERET. Only a clean exit off
				// the final instruction is a chainable completion.
				completed = idx == last
				break
			}
			// Mid-block hazards can only be raised by store-class
			// instructions: a guest store may patch code (execGen) and
			// only a device/doorbell store can raise an IRQ while the EL
			// and mask bits are unchanged (exceptions and ERET exit via
			// the PC check above; MSR ends every block). The seed paid
			// both re-checks on every instruction.
			if storeClass[ins.Op] {
				if c.cluster.execGen.Load() != startGen {
					break // the block's own code may have been patched
				}
				if c.IRQPending && !c.IRQMasked && c.EL == 0 {
					break // deliver at the top of the outer loop
				}
			}
		}
		if idx > last {
			completed = true // fell off the sequential end
		}
		exited := b
		b = nil
		if !completed || n >= maxInstrs ||
			(c.IRQPending && !c.IRQMasked && c.EL == 0) {
			continue
		}
		var slot *chainEdge
		if c.PC == blockVA+uint64(len(exited.instrs))*insn.Size {
			slot = &exited.fall
		} else if directBranch(exited.instrs[last].Op) {
			slot = &exited.taken
		} else {
			// SVC, ERET, indirect/authenticated branch: no per-block
			// edge can memoize a computed target — the ibtb probe at the
			// top of the loop covers these transfers.
			continue
		}
		if c.chainValid(slot) {
			c.ChainFollows++
			b = slot.to
			blockVA = c.PC
			continue
		}
		pending, pendPC = slot, c.PC
	}
	return Stop{Kind: StopLimit}
}

// runLegacy is the seed's per-instruction loop (NoBlockCache baseline).
func (c *CPU) runLegacy(maxInstrs uint64) Stop {
	for n := uint64(0); n < maxInstrs; n++ {
		if c.IRQPending && !c.IRQMasked && c.EL == 0 {
			c.IRQPending = false
			c.TakeException(VecIRQLower, ECUnknown, 0, 0)
			continue
		}
		stop, done := c.Step()
		if done {
			return stop
		}
	}
	return Stop{Kind: StopLimit}
}

// Step executes one instruction. done is true when the machine should
// stop (HLT or error).
func (c *CPU) Step() (Stop, bool) {
	var ins insn.Instr
	var fault *mmu.Fault
	var err error
	if c.NoBlockCache {
		ins, fault, err = c.fetchLegacy()
	} else {
		var b *codeBlock
		b, fault, err = c.fetchBlock()
		if b != nil {
			ins = b.instrs[0]
		}
	}
	if err != nil {
		return Stop{Kind: StopError, Err: err}, true
	}
	if fault != nil {
		c.instructionAbort(fault)
		return Stop{}, false
	}
	if ins.Op == insn.OpInvalid {
		c.undefined()
		return Stop{}, false
	}
	return c.execute(&ins)
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
		// Paired fast path: one host-pointer probe covers both halves
		// when they land in the same page (a hit proves the whole page
		// translates, so neither half can fault).
		if pg, off, _, ok := c.MMU.HostData(addr, c.EL, 16, mmu.Load); ok {
			c.SetReg(i.Rd, binary.LittleEndian.Uint64(pg[off:off+8]))
			c.SetReg(i.Rm, binary.LittleEndian.Uint64(pg[off+8:off+16]))
		} else {
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
		}
		if i.Op == insn.OpLDPpost {
			c.setRegSP(i.Rn, base+uint64(i.Imm))
		}

	case insn.OpSTP, insn.OpSTPpre:
		base := c.regSP(i.Rn)
		addr := base + uint64(i.Imm)
		if pg, off, pn, ok := c.hostStorePair(addr); ok {
			c.noteGuestStore(pn)
			binary.LittleEndian.PutUint64(pg[off:off+8], c.Reg(i.Rd))
			binary.LittleEndian.PutUint64(pg[off+8:off+16], c.Reg(i.Rm))
		} else {
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

	case insn.OpPACIA:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacSign(i.Rd, i.Rn, pac.KeyIA)
	case insn.OpPACIB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacSign(i.Rd, i.Rn, pac.KeyIB)
	case insn.OpPACDA:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacSign(i.Rd, i.Rn, pac.KeyDA)
	case insn.OpPACDB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacSign(i.Rd, i.Rn, pac.KeyDB)
	case insn.OpAUTIA:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacAuth(i.Rd, i.Rn, pac.KeyIA)
	case insn.OpAUTIB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacAuth(i.Rd, i.Rn, pac.KeyIB)
	case insn.OpAUTDA:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacAuth(i.Rd, i.Rn, pac.KeyDA)
	case insn.OpAUTDB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		c.pacAuth(i.Rd, i.Rn, pac.KeyDB)
	case insn.OpPACIZA, insn.OpPACIZB, insn.OpPACDZA, insn.OpPACDZB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		id := zeroModKey[i.Op]
		if c.pauthEnabled(id) {
			c.SetReg(i.Rd, c.Signer.Sign(c.Reg(i.Rd), 0, id))
		}
	case insn.OpAUTIZA, insn.OpAUTIZB, insn.OpAUTDZA, insn.OpAUTDZB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		id := zeroModKey[i.Op]
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
		id := pac.KeyIA
		if i.Op == insn.OpBLRAB {
			id = pac.KeyIB
		}
		target := c.authBranchTarget(i.Rn, c.Reg(i.Rm), id)
		c.X[insn.LR] = c.PC + insn.Size
		next = target
	case insn.OpBRAA, insn.OpBRAB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		id := pac.KeyIA
		if i.Op == insn.OpBRAB {
			id = pac.KeyIB
		}
		next = c.authBranchTarget(i.Rn, c.Reg(i.Rm), id)
	case insn.OpRETAA, insn.OpRETAB:
		if !c.requirePAuth() {
			return Stop{}, false
		}
		id := pac.KeyIA
		if i.Op == insn.OpRETAB {
			id = pac.KeyIB
		}
		next = c.authBranchTarget(insn.LR, c.sp[c.EL], id)

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
		if _, _, isKey := keyFor(i.Sys); isKey && !c.Feat.PAuth {
			c.undefined()
			return Stop{}, false
		}
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

// zeroModKey maps the zero-modifier PAuth ops to their key (hoisted to
// package level: building it per execution allocated on a hot path).
var zeroModKey = map[insn.Op]pac.KeyID{
	insn.OpPACIZA: pac.KeyIA, insn.OpPACIZB: pac.KeyIB,
	insn.OpPACDZA: pac.KeyDA, insn.OpPACDZB: pac.KeyDB,
	insn.OpAUTIZA: pac.KeyIA, insn.OpAUTIZB: pac.KeyIB,
	insn.OpAUTDZA: pac.KeyDA, insn.OpAUTDZB: pac.KeyDB,
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
