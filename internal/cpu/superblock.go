package cpu

import (
	"encoding/binary"

	"camouflage/internal/insn"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/obs"
)

// hostLoad64/hostStore64 are the host-pointer page accessors shared by
// the inline LDP/STP cases (identical to execute's inlined forms).
func hostLoad64(pg *[mem.PageSize]byte, off uint64) uint64 {
	return binary.LittleEndian.Uint64(pg[off : off+8])
}

func hostStore64(pg *[mem.PageSize]byte, off uint64, v uint64) {
	binary.LittleEndian.PutUint64(pg[off:off+8], v)
}

// hostLoadN/hostStoreN are the sized variants backing the single-register
// load/store fast paths (same truncation rules as the bus path).
func hostLoadN(pg *[mem.PageSize]byte, off, size uint64) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(pg[off : off+8])
	case 4:
		return uint64(binary.LittleEndian.Uint32(pg[off : off+4]))
	default:
		return uint64(pg[off])
	}
}

func hostStoreN(pg *[mem.PageSize]byte, off, size, v uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(pg[off:off+8], v)
	case 4:
		binary.LittleEndian.PutUint32(pg[off:off+4], uint32(v))
	default:
		pg[off] = byte(v)
	}
}

// Superblock (trace) execution: when a decoded block stays hot — it keeps
// being entered through the dispatch loop — the run of blocks its direct
// successors lead to is fused into a single straight-line trace. A trace
// executes from one flat instruction array in runTrace, paying the
// per-entry work (memo probe, regime and generation checks) once per
// trace entry instead of once per basic block, and — for loop-shaped
// traces — re-entering the loop body with only an IRQ/budget/execGen
// check. A block without a usable trace runs in the same runTrace as a
// one-block view of itself.
//
// Validity is the same §3 contract an entry-memo slot obeys, hoisted to
// trace granularity:
//
//	clause                  checked              severs on
//	----------------------  -------------------  ------------------------
//	entry VA == build VA    every entry          VA aliasing of the entry PA
//	constituent pageGens    every entry          any store into a fused page
//	                                             (self- or cross-CPU), and
//	                                             InvalidateDecode/RestoreState
//	TT0/TT1 identity+gen    every entry          context switch, map/unmap
//	S2 gen+enable           every entry          stage-2 Restrict/Clear
//	EL, MMU enable          every entry          exception, ERET, MMU toggle
//	execGen                 after store-class    any code-page store anywhere
//	                        instrs and at each   in the cluster, mid-trace
//	                        loop back-edge
//
// A clause failing at entry runs the entry block's one-block view
// instead (the trace is dropped only when a constituent block itself
// went stale); a clause failing mid-trace side-exits with fully
// architectural state, because every instruction retires exactly as it
// would under execute().
const (
	// hotThreshold is how many times a block is entered before the run
	// of blocks starting there is fused into a trace. Low enough to
	// catch benchmark and syscall loops within their first iterations,
	// high enough that one-shot boot code never pays a build.
	hotThreshold = 16

	// maxTraceBlocks and maxTraceInstrs bound fusion: a trace never holds
	// more than this many constituent blocks or instructions.
	maxTraceBlocks = 16
	maxTraceInstrs = 512

	// entryMemoSize is the number of direct-mapped entry-memo slots
	// (memoized fetchBlock results keyed by the low PC bits).
	entryMemoSize = 128
)

// trace is one fused superblock: the concatenated instructions of a run
// of basic blocks, the expected successor after each instruction as an
// offset from the entry VA (a uniform side-exit check covering
// fall-through and fused branch targets alike), the constituent blocks
// (whose shared generation cells the entry check validates), and one
// translation-regime snapshot — the builder only fuses successors on the
// entry's address side, translated under that regime, so a single
// regime comparison at entry covers every constituent mapping.
type trace struct {
	entryVA uint64
	instrs  []insn.Instr
	succ    []uint64 // expected PC after instrs[k] retires, minus entryVA

	blocks []*codeBlock

	// lastGen is the cluster execGen value as of the last full
	// constituent-block validation (build time, or a re-arm in
	// traceValid): while execGen is unmoved no generation cell anywhere
	// can have moved either — every cell bump also bumps execGen — so
	// entry validation is one atomic load instead of a per-block walk.
	lastGen uint64

	rg regime

	// looping marks a trace whose last fused successor is its own entry
	// (a loop body): runTrace re-enters the body directly, re-checking
	// only IRQ, budget and execGen.
	looping bool
}

// traceValid reports whether t may run right now from entryVA: every
// constituent block's generation cell is unmoved and the translation
// regime still matches the build-time snapshot (see the clause table
// above). The caller has just probed or fetched the entry block, so the
// entry mapping itself is current.
func (c *CPU) traceValid(t *trace, entryVA uint64) bool {
	if entryVA != t.entryVA {
		return false
	}
	if g := c.cluster.execGen.Load(); g != t.lastGen {
		for _, b := range t.blocks {
			if b.gen != b.genp.Load() {
				return false
			}
		}
		// All cells individually unmoved: re-arm the one-load fast check
		// with the execGen value read before the walk (a bump landing
		// mid-walk re-triggers the walk on the next entry — conservative,
		// never stale).
		t.lastGen = g
	}
	return c.regimeHolds(&t.rg)
}

// traceStale reports whether a constituent block's code was invalidated
// (as opposed to a transient regime mismatch): only then is the trace
// really dead and worth dropping for a rebuild.
func traceStale(t *trace) bool {
	for _, b := range t.blocks {
		if b.gen != b.genp.Load() {
			return true
		}
	}
	return false
}

// buildTrace fuses the run of blocks starting at block b (entered at
// entryVA) into a trace and attaches it to b. Each successor is found by
// lookup (lookupBlock): the taken target of a direct branch first (loop
// back-edges live there), else — for a conditional, or a block that
// spilled past the page/size cap — the sequential exit. An indirect
// branch (RET, BR, BLR) fuses to a guess: the target its block last
// took as a one-block view (codeBlock.taken). The succ check makes
// every guess safe: a wrong one side-exits. Fusion stops at a
// successor with no valid decoded block under the trace's regime, at
// any block revisit (closing the loop when the revisit is the entry
// itself), at an authenticated branch, SVC, ERET or HLT, and at the
// size caps. A trace is attached even when nothing fuses: a single
// block that branches back to itself still becomes a looping trace.
func (c *CPU) buildTrace(b *codeBlock, entryVA uint64) {
	t := &trace{entryVA: entryVA, rg: c.captureRegime(entryVA)}
	// Snapshot execGen before walking the constituents: a bump landing
	// mid-build leaves lastGen behind the cell state, which only costs
	// one full re-validation at the first entry.
	t.lastGen = c.cluster.execGen.Load()
	va := entryVA
	cur := b
	for {
		if cur.gen != cur.genp.Load() {
			return // constituent went stale mid-build; don't attach
		}
		t.blocks = append(t.blocks, cur)
		for k := range cur.instrs {
			t.instrs = append(t.instrs, cur.instrs[k])
			t.succ = append(t.succ, va-entryVA+uint64(k+1)*insn.Size)
		}
		if len(t.blocks) >= maxTraceBlocks || len(t.instrs) >= maxTraceInstrs {
			break
		}
		last := len(cur.instrs) - 1
		lastVA := va + uint64(last)*insn.Size
		lastOp := cur.instrs[last].Op

		var next *codeBlock
		var nextVA uint64
		switch {
		case directBranch(lastOp):
			nextVA = lastVA + uint64(cur.instrs[last].Imm)
			next = c.lookupBlock(nextVA, &t.rg)
			if next == nil && condBranch(lastOp) {
				nextVA = lastVA + insn.Size
				next = c.lookupBlock(nextVA, &t.rg)
			}
		case lastOp == insn.OpRET || lastOp == insn.OpBR || lastOp == insn.OpBLR:
			nextVA = cur.taken
			next = c.lookupBlock(nextVA, &t.rg)
		case !endsBlock(lastOp):
			nextVA = lastVA + insn.Size
			next = c.lookupBlock(nextVA, &t.rg)
		default:
			// SVC, ERET, authenticated branch, HLT, Invalid: never
			// fused across.
			goto done
		}
		if next == nil {
			break
		}
		// Retarget the fused exit: after the branch retires, the PC must
		// be the fused successor — on any other outcome (conditional not
		// taken where the taken side was fused, or vice versa) the trace
		// side-exits with architectural state.
		t.succ[len(t.succ)-1] = nextVA - entryVA
		if nextVA == entryVA {
			t.looping = true
			goto done
		}
		for _, seen := range t.blocks {
			if seen == next {
				goto done // inner revisit that isn't the entry: stop
			}
		}
		cur, va = next, nextVA
	}
done:
	b.tr = t
	c.TracesBuilt++
}

// lookupBlock returns the valid decoded block a fetch at va would run
// under regime r — which must be the current one — or nil. va must sit
// on r's address side (the trace's one regime snapshot covers only that
// side) and translate for fetch, and the block map must already hold a
// valid block at the physical address: fusion never decodes.
func (c *CPU) lookupBlock(va uint64, r *regime) *codeBlock {
	if r.mmuOn && c.MMU.KernelSide(va) != r.tt1 {
		return nil
	}
	pa, f := c.MMU.Translate(va, mmu.Fetch, c.EL)
	if f != nil {
		return nil
	}
	b := c.blocks[pa]
	if b == nil || b.gen != b.genp.Load() {
		return nil
	}
	return b
}

// condBranch reports whether op is a conditional direct branch (both
// exits exist and may be fused).
func condBranch(op insn.Op) bool {
	switch op {
	case insn.OpBcond, insn.OpCBZ, insn.OpCBNZ:
		return true
	}
	return false
}

// runTrace is the one executor of decoded code. It runs t's fused body,
// or with t nil b's one-block view, from the current PC, the entry VA,
// until a side exit: an outcome off the expected successors
// (succ[k] is the PC offset from the entry VA that instruction k must
// leave behind), an exception or fault, a mid-run code invalidation
// (execGen), a deliverable IRQ after a store, the budget, or — unless
// looping — simply the end of the body. A looping body re-enters itself
// after its last instruction. Every instruction retires with exactly
// the accounting execute() would give it; the hot opcodes are dispatched
// inline, everything else falls back to execute(). done=true propagates
// a machine stop (HLT, error). A one-block view that side-exits at its
// closing branch records the PC it left behind in b.taken, the guess
// buildTrace fuses for an indirect branch.
//
// The loop is two-tiered. The first switch covers the pure ALU opcodes:
// they cannot fault, branch or store, so they retire with a constant
// one-cycle epilogue and no successor or hazard check at all — a
// straight-line instruction's PC provably advances to succ[idx]. The
// slow tier handles branches, direct and indirect (successor check: an
// unfused outcome side-exits), loads (fault check), stores (fault +
// execGen/IRQ hazard checks — the only inline instructions that can
// patch code or raise an IRQ), the keyed PAC*/AUT* forms and MSR/MRS
// (undefined-instruction check), and falls back to execute() for SVC,
// ERET, HLT, the authenticated branches and the rare PAuth and ALU
// forms.
//
// Cycle/retirement/budget accounting and the PC are carried in locals
// and flushed at every exit and before every call that can observe them
// (MRS PMCCNTR/CNTVCT reads c.Cycles, an MSR hook may read any of them,
// and aborts capture c.PC into ELR). The flush points keep the counters
// bit-identical to the seed interpreter's.
//
// The caller guarantees: code is valid to run from the current PC under
// the current regime (the entry memo or fetchBlock just validated the
// entry block, and traceValid the rest of a fused trace), and no IRQ is
// deliverable. *n counts the budget spent so far; runTrace never spends
// past maxInstrs.
//
//camo:hotpath
func (c *CPU) runTrace(b *codeBlock, t *trace, n *uint64, maxInstrs uint64) (stop Stop, done bool) {
	code, succ, looping := b.instrs, seqSucc[:len(b.instrs)], false
	if t != nil {
		code, succ, looping = t.instrs, t.succ, t.looping
	}
	startGen := c.cluster.execGen.Load()
	var cyc, ret uint64 // batched c.Cycles / c.Retired-and-budget deltas
	pc := c.PC
	base := pc
	// EL and the IRQ mask are constant across inline instructions (only
	// exceptions and ERET change them, and those end every body; no MSR
	// can, see MSRHook), so deliverability is decided once.
	canIRQ := c.EL == 0 && !c.IRQMasked
	// Last-page memo for the inline memory ops: the translation regime is
	// frozen while a body runs (every regime-changing instruction ends
	// one), so a HostData hit stays valid until something outside the
	// inline cases runs — a slow-path bus access or an execute()
	// fallback, both of which can reach devices that remap or reseat
	// pages. Those sites reset the memo; inline PAuth, MSR/MRS and
	// indirect branches touch no memory and keep it. Loads and stores
	// memo separately: the access kinds carry different permissions.
	ldVP, stVP := ^uint64(0), ^uint64(0)
	var ldPG, stPG *[mem.PageSize]byte
	// Inline stores probe the CPU's store-cell memo in place and call
	// noteGuestStore only for a code page or an untrusted memo slot.
	var stPN uint64
	for {
		// A lap runs the whole body unless the budget ends inside it.
		// *n + ret is the budget spent so far: the slow tier's flushes
		// move ret into *n without changing the sum.
		end := len(code)
		if left := maxInstrs - *n - ret; left < uint64(end) {
			end = int(left)
		}
		for idx := 0; idx < end; idx++ {
			ins := &code[idx]
			op := ins.Op
			switch op {
			case insn.OpADDi:
				c.setRegSP(ins.Rd, c.regSP(ins.Rn)+uint64(ins.Imm)<<ins.Shift)
			case insn.OpSUBi:
				c.setRegSP(ins.Rd, c.regSP(ins.Rn)-uint64(ins.Imm)<<ins.Shift)
			case insn.OpEORr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)^c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpADDr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)+c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpSUBr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)-c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpANDr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)&(c.Reg(ins.Rm)<<ins.Shift))
			case insn.OpORRr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)|c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpSUBSr:
				a := c.Reg(ins.Rn)
				b := c.Reg(ins.Rm) << ins.Shift
				res := a - b
				c.SetReg(ins.Rd, res)
				c.N = res>>63 == 1
				c.Z = res == 0
				c.C = a >= b
				c.V = (a>>63 != b>>63) && (res>>63 != a>>63)
			case insn.OpANDSr:
				res := c.Reg(ins.Rn) & (c.Reg(ins.Rm) << ins.Shift)
				c.SetReg(ins.Rd, res)
				c.N = res>>63 == 1
				c.Z = res == 0
				c.C = false
				c.V = false
			case insn.OpMOVZ:
				v := uint64(uint16(ins.Imm)) << ins.Shift
				if !ins.SF {
					v = uint64(uint32(v))
				}
				c.SetReg(ins.Rd, v)
			case insn.OpMOVN:
				v := ^(uint64(uint16(ins.Imm)) << ins.Shift)
				if !ins.SF {
					v = uint64(uint32(v))
				}
				c.SetReg(ins.Rd, v)
			case insn.OpMOVK:
				v := c.Reg(ins.Rd)
				v = v&^(uint64(0xFFFF)<<ins.Shift) | uint64(uint16(ins.Imm))<<ins.Shift
				if !ins.SF {
					v = uint64(uint32(v))
				}
				c.SetReg(ins.Rd, v)
			case insn.OpADR:
				c.SetReg(ins.Rd, pc+uint64(ins.Imm))
			case insn.OpADRP:
				c.SetReg(ins.Rd, pc&^uint64(4095)+uint64(ins.Imm)*4096)
			case insn.OpUBFM:
				r := uint(ins.ImmR)
				s := uint(ins.ImmS)
				src := c.Reg(ins.Rn)
				var v uint64
				if s >= r {
					v = src >> r & maskBits(s-r+1)
				} else {
					v = (src & maskBits(s+1)) << (64 - r)
				}
				c.SetReg(ins.Rd, v)
			case insn.OpBFM:
				r := uint(ins.ImmR)
				s := uint(ins.ImmS)
				src := c.Reg(ins.Rn)
				dst := c.Reg(ins.Rd)
				if s >= r {
					w := maskBits(s - r + 1)
					dst = dst&^w | (src >> r & w)
				} else {
					w := maskBits(s + 1)
					dst = dst&^(w<<(64-r)) | (src&w)<<(64-r)
				}
				c.SetReg(ins.Rd, dst)
			case insn.OpCSEL:
				if c.condHolds(ins.Cond) {
					c.SetReg(ins.Rd, c.Reg(ins.Rn))
				} else {
					c.SetReg(ins.Rd, c.Reg(ins.Rm))
				}
			case insn.OpLSLV:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)<<(c.Reg(ins.Rm)&63))
			case insn.OpLSRV:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)>>(c.Reg(ins.Rm)&63))
			case insn.OpNOP:
				// no architectural effect
			default:
				goto slow
			}
			// Fast epilogue: every op above costs exactly costALU and
			// provably advances pc to succ[idx].
			cyc++
			ret++
			pc += insn.Size
			continue

		slow:
			{
				next := pc + insn.Size
				switch op {
				case insn.OpB:
					next = pc + uint64(ins.Imm)
				case insn.OpBL:
					c.X[insn.LR] = pc + insn.Size
					next = pc + uint64(ins.Imm)
				case insn.OpBcond:
					if c.condHolds(ins.Cond) {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpCBZ:
					if c.Reg(ins.Rd) == 0 {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpCBNZ:
					if c.Reg(ins.Rd) != 0 {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpBR, insn.OpRET:
					next = c.Reg(ins.Rn)
				case insn.OpBLR:
					c.X[insn.LR] = pc + insn.Size
					next = c.Reg(ins.Rn)

				case insn.OpPACIA, insn.OpPACIB, insn.OpPACDA, insn.OpPACDB:
					if !c.Feat.PAuth {
						goto undef
					}
					c.pacSign(ins.Rd, ins.Rn, pacKey[op])
					goto sequential
				case insn.OpAUTIA, insn.OpAUTIB, insn.OpAUTDA, insn.OpAUTDB:
					if !c.Feat.PAuth {
						goto undef
					}
					c.pacAuth(ins.Rd, ins.Rn, pacKey[op])
					goto sequential

				// MSR and MRS flush first: the write's hook and a
				// PMCCNTR/CNTVCT read observe the architectural counters.
				case insn.OpMSR:
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					cyc, ret = 0, 0
					if c.WriteSys(ins.Sys, c.Reg(ins.Rd)) != nil {
						goto undef
					}
					goto sequential
				case insn.OpMRS:
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					cyc, ret = 0, 0
					v, err := c.ReadSys(ins.Sys)
					if err != nil {
						goto undef
					}
					c.SetReg(ins.Rd, v)
					goto sequential

				case insn.OpLDR, insn.OpLDRW, insn.OpLDRB, insn.OpLDRpost:
					size := uint64(8)
					if op == insn.OpLDRW {
						size = 4
					} else if op == insn.OpLDRB {
						size = 1
					}
					base := c.regSP(ins.Rn)
					addr := base
					if op != insn.OpLDRpost {
						addr += uint64(ins.Imm)
					}
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == ldVP && off+size <= mem.PageSize {
						c.SetReg(ins.Rd, hostLoadN(ldPG, off, size))
					} else if pg, o, _, ok := c.MMU.HostData(addr, c.EL, size, mmu.Load); ok {
						ldVP, ldPG = addr>>mem.PageShift, pg
						c.SetReg(ins.Rd, hostLoadN(pg, o, size))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						v, f, err := c.loadMem(addr, int(size))
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
						c.SetReg(ins.Rd, v)
					}
					if op == insn.OpLDRpost {
						c.setRegSP(ins.Rn, base+uint64(ins.Imm))
					}
					goto sequential
				case insn.OpLDP, insn.OpLDPpost:
					base := c.regSP(ins.Rn)
					addr := base
					if op == insn.OpLDP {
						addr = base + uint64(ins.Imm)
					}
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == ldVP && off+16 <= mem.PageSize {
						c.SetReg(ins.Rd, hostLoad64(ldPG, off))
						c.SetReg(ins.Rm, hostLoad64(ldPG, off+8))
					} else if pg, o, _, ok := c.MMU.HostData(addr, c.EL, 16, mmu.Load); ok {
						ldVP, ldPG = addr>>mem.PageShift, pg
						c.SetReg(ins.Rd, hostLoad64(pg, o))
						c.SetReg(ins.Rm, hostLoad64(pg, o+8))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						v1, f, err := c.loadMem(addr, 8)
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f == nil {
							var v2 uint64
							v2, f, err = c.loadMem(addr+8, 8)
							if err != nil {
								c.PC = pc
								c.flushTrace(n, cyc, ret)
								return Stop{Kind: StopError, Err: err}, true
							}
							if f == nil {
								c.SetReg(ins.Rd, v1)
								c.SetReg(ins.Rm, v2)
							}
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
					}
					if op == insn.OpLDPpost {
						c.setRegSP(ins.Rn, base+uint64(ins.Imm))
					}
					goto sequential

				case insn.OpSTR, insn.OpSTRW, insn.OpSTRB, insn.OpSTRpre:
					size := uint64(8)
					if op == insn.OpSTRW {
						size = 4
					} else if op == insn.OpSTRB {
						size = 1
					}
					addr := c.regSP(ins.Rn) + uint64(ins.Imm)
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == stVP && off+size <= mem.PageSize {
						if g, trusted := c.storeCellMemo(stPN); g != nil || !trusted {
							c.noteGuestStore(stPN)
						}
						hostStoreN(stPG, off, size, c.Reg(ins.Rd))
					} else if pg, o, pn, ok := c.MMU.HostData(addr, c.EL, size, mmu.Store); ok {
						stVP, stPG, stPN = addr>>mem.PageShift, pg, pn
						if g, trusted := c.storeCellMemo(pn); g != nil || !trusted {
							c.noteGuestStore(pn)
						}
						hostStoreN(pg, o, size, c.Reg(ins.Rd))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						f, err := c.storeMem(addr, int(size), c.Reg(ins.Rd))
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
					}
					if op == insn.OpSTRpre {
						c.setRegSP(ins.Rn, addr)
					}
					goto stored
				case insn.OpSTP, insn.OpSTPpre:
					base := c.regSP(ins.Rn)
					addr := base + uint64(ins.Imm)
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == stVP && off+16 <= mem.PageSize {
						if g, trusted := c.storeCellMemo(stPN); g != nil || !trusted {
							c.noteGuestStore(stPN)
						}
						hostStore64(stPG, off, c.Reg(ins.Rd))
						hostStore64(stPG, off+8, c.Reg(ins.Rm))
					} else if pg, o, pn, ok := c.MMU.HostData(addr, c.EL, 16, mmu.Store); ok {
						stVP, stPG, stPN = addr>>mem.PageShift, pg, pn
						if g, trusted := c.storeCellMemo(pn); g != nil || !trusted {
							c.noteGuestStore(pn)
						}
						hostStore64(pg, o, c.Reg(ins.Rd))
						hostStore64(pg, o+8, c.Reg(ins.Rm))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						f, err := c.storeMem(addr, 8, c.Reg(ins.Rd))
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f == nil {
							f, err = c.storeMem(addr+8, 8, c.Reg(ins.Rm))
							if err != nil {
								c.PC = pc
								c.flushTrace(n, cyc, ret)
								return Stop{Kind: StopError, Err: err}, true
							}
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
					}
					if op == insn.OpSTPpre {
						c.setRegSP(ins.Rn, addr)
					}
					goto stored

				case insn.OpInvalid:
					goto undef

				default:
					// Everything else — SVC, ERET, HLT, the authenticated
					// branches and the rare PAuth and ALU forms — retires
					// through execute, with the architectural counters
					// flushed first. Every store has its own case above,
					// so no op here needs the store hazard checks.
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					cyc, ret = 0, 0
					c.obsLocal.V[obs.CSlowFallback]++
					stop, done = c.execute(ins)
					*n++
					if done {
						c.obsLocal.V[obs.CTraceExitStop]++
						return stop, true
					}
					ldVP, stVP = ^uint64(0), ^uint64(0)
					pc = c.PC
					if pc-base != succ[idx] {
						c.obsLocal.V[obs.CTraceExitBranch]++
						return Stop{}, false
					}
					continue
				}
				// Branch epilogue: the only inline ops that can diverge
				// from the fused successor (costBranch == costALU == 1).
				cyc++
				ret++
				pc = next
				if pc-base != succ[idx] {
					if t == nil {
						b.taken = pc
					}
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					c.obsLocal.V[obs.CTraceExitBranch]++
					return Stop{}, false
				}
				continue
			}

		sequential:
			// Loads, keyed PAuth and MSR/MRS: a per-op cost and a
			// sequential PC, which cannot leave the body's successor.
			cyc += costTab[op]
			ret++
			pc += insn.Size
			continue

		stored:
			// Store hazards: the store may have patched code anywhere in
			// the cluster (execGen) or hit a device that raised an IRQ.
			cyc += costTab[op]
			ret++
			pc += insn.Size
			if c.cluster.execGen.Load() != startGen || (canIRQ && c.IRQPending) {
				c.PC = pc
				c.flushTrace(n, cyc, ret)
				if c.cluster.execGen.Load() != startGen {
					c.obsLocal.V[obs.CTraceExitHazard]++
				} else {
					c.obsLocal.V[obs.CTraceExitIRQ]++
				}
				return Stop{}, false
			}
			continue

		undef:
			c.PC = pc
			c.flushTrace(n, cyc, ret)
			c.obsLocal.V[obs.CTraceExitFault]++
			c.undefined()
			*n++
			return Stop{}, false
		}
		if end < len(code) {
			c.PC = pc
			c.flushTrace(n, cyc, ret)
			c.obsLocal.V[obs.CTraceExitBudget]++
			return Stop{}, false
		}
		// Body complete. A looping body re-enters directly: its fused
		// back-edge has already proven pc == entry VA, so only the IRQ
		// and cross-CPU invalidation clauses need re-checking (the next
		// lap caps itself at the budget).
		if !looping || (canIRQ && c.IRQPending) ||
			c.cluster.execGen.Load() != startGen {
			c.PC = pc
			c.flushTrace(n, cyc, ret)
			switch {
			case !looping:
				c.obsLocal.V[obs.CTraceExitEnd]++
			case canIRQ && c.IRQPending:
				c.obsLocal.V[obs.CTraceExitIRQ]++
			default:
				c.obsLocal.V[obs.CTraceExitHazard]++
			}
			return Stop{}, false
		}
	}
}

// flushTrace folds runTrace's batched accounting into the architectural
// counters and the caller's budget.
func (c *CPU) flushTrace(n *uint64, cyc, ret uint64) {
	c.Cycles += cyc
	c.Retired += ret
	*n += ret
}
