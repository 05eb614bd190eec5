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
// of basic blocks (with the trap-frame and move-wide idioms fused, see
// fuseRuns), each instruction's PC and expected successor as offsets
// from the entry VA (a uniform side-exit check covering fall-through
// and fused branch targets alike), the constituent blocks
// (whose shared generation cells the entry check validates), and one
// translation-regime snapshot — the builder only fuses successors on the
// entry's address side, translated under that regime, so a single
// regime comparison at entry covers every constituent mapping.
type trace struct {
	entryVA uint64
	instrs  []insn.Instr
	// at[k] is the PC of instrs[k] minus entryVA, and at[k+1] the PC
	// instrs[k] must leave behind (its fused successor); at[len(instrs)]
	// is the PC after the body, the entry VA for a looping trace.
	at []uint64

	blocks []*codeBlock

	// lastGen is the cluster execGen value as of the last full
	// constituent-block validation (build time, or a re-arm in
	// traceValid): while execGen is unmoved no generation cell anywhere
	// can have moved either — every cell bump also bumps execGen — so
	// entry validation is one load instead of a per-block walk.
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
	if g := c.cluster.execGen; g != t.lastGen {
		for _, b := range t.blocks {
			if b.gen != *b.genp {
				return false
			}
		}
		// All cells individually unmoved: re-arm the one-load fast check.
		t.lastGen = g
	}
	return c.regimeHolds(&t.rg)
}

// traceStale reports whether a constituent block's code was invalidated
// (as opposed to a transient regime mismatch): only then is the trace
// really dead and worth dropping for a rebuild.
func traceStale(t *trace) bool {
	for _, b := range t.blocks {
		if b.gen != *b.genp {
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
	t := &trace{entryVA: entryVA, rg: c.captureRegime(entryVA), at: []uint64{0}}
	// The constituents need no staleness check: the caller has just
	// validated b, lookupBlock returns only valid blocks, and nothing
	// runs mid-build.
	t.lastGen = c.cluster.execGen
	va := entryVA
	cur := b
	for {
		t.blocks = append(t.blocks, cur)
		for k := range cur.instrs {
			t.instrs = append(t.instrs, cur.instrs[k])
			t.at = append(t.at, va-entryVA+uint64(k+1)*insn.Size)
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
		t.at[len(t.at)-1] = nextVA - entryVA
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
	fuseRuns(t.instrs)
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
	if b == nil || b.gen != *b.genp {
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

// Fused ops. buildTrace's last step, fuseRuns, rewrites two idioms of
// the kernel's entry and exit paths into single ops, each retiring its k
// instructions at their summed cycle cost:
//
//   - a run of plain STPs (or LDPs) off one base register at consecutive
//     16-byte offsets: el0_sync pushes the trap frame with 15 STPs and
//     ret_to_user pops it with 15 LDPs;
//   - a MOVZ and the MOVKs that follow it into the same register at the
//     same width, each into a halfword the chain has not written yet:
//     the §4.1 key setter's MOVZ+3×MOVK per key half, and the kernel's
//     address builds.
//
// A fused op overwrites the run's first instruction, its head, which
// keeps that instruction's operands and carries k in ImmS (no pair
// access or move-wide reads it); a fused move also holds the chain's
// final value in Imm. The run's other instructions stay in place, so
// instrs[idx] is still the idx-th instruction the trace retires and
// runTrace's index accounting holds across a fused op. A fused op runs
// as its unfused head, after which the rest of the run retires one
// instruction at a time, whenever the budget ends inside it; a pair run
// also does when its 16·k bytes are not on one host-pointer page, and a
// store run when that page holds code or its store-memo slot is
// untrusted. The unfused head of a move is the chain's final value
// masked to the MOVZ's halfword, which no later MOVK of the chain
// writes. An LDP that loads its own base register is never fused: the
// pairs after it would address off the reloaded base.
//
// The fused ops are numbered right after the decoded ones, so that
// runTrace's switches stay dense enough for gc to compile them to jump
// tables.
const (
	opSTPRun = insn.NumOps + iota // k STPs
	opLDPRun                      // k LDPs
	opMOVImm                      // a MOVZ and k-1 MOVKs
)

// maxFusedLen caps a fused run at what its head's ImmS holds.
const maxFusedLen = 255

// fuseRuns rewrites the head of every fusable run in a trace body.
func fuseRuns(code []insn.Instr) {
	for i := 0; i < len(code); {
		h := &code[i]
		k := 1
		switch h.Op {
		case insn.OpSTP:
			if k = pairRun(code, i); k > 1 {
				h.Op, h.ImmS = opSTPRun, uint8(k)
			}
		case insn.OpLDP:
			if k = pairRun(code, i); k > 1 {
				h.Op, h.ImmS = opLDPRun, uint8(k)
			}
		case insn.OpMOVZ:
			var v uint64
			if k, v = movChain(code, i); k > 1 {
				h.Op, h.Imm, h.ImmS = opMOVImm, int64(v), uint8(k)
			}
		}
		i += max(k, 1)
	}
}

// pairRun returns the length of the run of pair accesses starting at
// code[i]: same op, same base, consecutive 16-byte offsets, up to the
// first LDP that would load its base.
func pairRun(code []insn.Instr, i int) int {
	h := &code[i]
	k := 0
	for ; k < maxFusedLen && i+k < len(code); k++ {
		p := &code[i+k]
		if p.Op != h.Op || p.Rn != h.Rn || p.Imm != h.Imm+16*int64(k) {
			break
		}
		if p.Op == insn.OpLDP && p.Rn != insn.SP && (p.Rd == p.Rn || p.Rm == p.Rn) {
			break
		}
	}
	return k
}

// movChain returns the length of the move-wide chain starting at the
// MOVZ code[i] and the value it leaves in the register.
func movChain(code []insn.Instr, i int) (int, uint64) {
	h := &code[i]
	v := uint64(uint16(h.Imm)) << h.Shift
	if !h.SF {
		v = uint64(uint32(v))
	}
	written := 1 << (h.Shift / 16)
	k := 1
	for ; i+k < len(code); k++ {
		p := &code[i+k]
		hw := 1 << (p.Shift / 16)
		if p.Op != insn.OpMOVK || p.Rd != h.Rd || p.SF != h.SF || written&hw != 0 {
			break
		}
		written |= hw
		v = v&^(uint64(0xFFFF)<<p.Shift) | uint64(uint16(p.Imm))<<p.Shift
		if !p.SF {
			v = uint64(uint32(v))
		}
	}
	return k, v
}

// runState is the part of runTrace's state that its ALU tier never
// touches. It has more than four fields, so gc keeps it in the frame
// and loads or stores a field only where a slow-tier op uses it,
// instead of carrying each in a register that every call in the loop
// would spill.
type runState struct {
	// entry is the entry VA, and instruction idx sits at entry + at[idx].
	entry uint64
	at    []uint64
	// Instructions retired since the last flush are idx - mark, and
	// their cycles idx - mark + extra: mark is idx at the last flush
	// (less one body length per lap), and extra gathers costTab[op]-1
	// of every op since then that does not cost one cycle.
	mark, extra uint64
	// startGen is the cluster's execGen at entry.
	startGen uint64
	// taken is the one-block view's codeBlock.taken (nil for a trace).
	taken *uint64
	// canIRQ: EL and the IRQ mask are constant across inline
	// instructions (only exceptions and ERET change them, and those end
	// every body; no MSR can, see MSRHook), so deliverability is decided
	// once.
	canIRQ, looping bool
	// Last-page memos for the inline memory ops: the translation regime
	// is frozen while a body runs (every regime-changing instruction
	// ends one), so a HostData hit stays valid until something outside
	// the inline cases runs — a slow-path bus access or an execute()
	// fallback, both of which can reach devices that remap or reseat
	// pages. Those sites reset the memo; inline PAuth, MSR/MRS and
	// indirect branches touch no memory and keep it. Loads and stores
	// memo separately: the access kinds carry different permissions.
	// stPN is the store page's physical page number, for the store-cell
	// memo probe.
	ldVP, stVP, stPN uint64
	ldPG, stPG       *[mem.PageSize]byte
}

// pc returns the PC of the instruction at idx.
func (s *runState) pc(idx int) uint64 { return s.entry + s.at[idx] }

// flush folds the instructions retired before idx, and their cycles,
// into the architectural counters and the caller's budget *n, and
// leaves the PC at pc.
func (c *CPU) flush(s *runState, n *uint64, idx int, pc uint64) {
	r := uint64(idx) - s.mark
	c.Retired += r
	c.Cycles += r + s.extra
	*n += r
	s.mark, s.extra = uint64(idx), 0
	c.PC = pc
}

// loadRunPage returns the host page and offset of a fused LDP run's
// size bytes at addr, or ok=false when they are not on one host-pointer
// page and the run must retire unfused.
func (c *CPU) loadRunPage(s *runState, addr, size uint64) (pg *[mem.PageSize]byte, off uint64, ok bool) {
	off = addr & (mem.PageSize - 1)
	if addr>>mem.PageShift == s.ldVP && off+size <= mem.PageSize {
		return s.ldPG, off, true
	}
	if pg, off, _, ok = c.MMU.HostData(addr, c.EL, size, mmu.Load); ok {
		s.ldVP, s.ldPG = addr>>mem.PageShift, pg
	}
	return pg, off, ok
}

// storeRunPage is loadRunPage for a fused STP run, which also retires
// unfused when the page holds code (a store there must sever traces
// and exit at once) or its store-memo slot is untrusted.
func (c *CPU) storeRunPage(s *runState, addr, size uint64) (pg *[mem.PageSize]byte, off uint64, ok bool) {
	off = addr & (mem.PageSize - 1)
	if addr>>mem.PageShift != s.stVP || off+size > mem.PageSize {
		var pn uint64
		if pg, off, pn, ok = c.MMU.HostData(addr, c.EL, size, mmu.Store); !ok {
			return nil, 0, false
		}
		s.stVP, s.stPG, s.stPN = addr>>mem.PageShift, pg, pn
	}
	if g, trusted := c.storeCellMemo(s.stPN); g != nil || !trusted {
		return nil, 0, false
	}
	return s.stPG, off, true
}

// runTrace is the one executor of decoded code. It runs t's fused body,
// or with t nil b's one-block view, from the current PC, the entry VA,
// until a side exit: an outcome off the expected successors
// (at[k+1] is the PC offset from the entry VA that instruction k must
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
// The loop is two-tiered. The first switch covers the pure ALU opcodes
// and fused moves: they cannot fault, branch or store, so they retire
// with no epilogue, successor or hazard check at all — a straight-line
// instruction's PC provably advances to at[idx+1]. The slow tier handles
// branches, direct and indirect (successor check: an unfused outcome
// side-exits), loads (fault check), stores (fault + execGen/IRQ hazard
// checks — the only inline instructions that can patch code or raise an
// IRQ), the fused pair runs, the keyed PAC*/AUT* forms and MSR/MRS
// (undefined-instruction check), and falls back to execute() for SVC,
// ERET, HLT, the authenticated branches and the rare PAuth and ALU
// forms.
//
// The ALU tier touches only idx: retired, cycles and the PC are derived
// from it (runState), so no counter is carried across the loop's calls.
// They are flushed at every exit and before every call that can observe
// them (MRS PMCCNTR/CNTVCT reads c.Cycles, an MSR hook may read any of
// them, and aborts capture c.PC into ELR). The flush points keep the
// counters bit-identical to the seed interpreter's.
//
// The caller guarantees: code is valid to run from the current PC under
// the current regime (the entry memo or fetchBlock just validated the
// entry block, and traceValid the rest of a fused trace), and no IRQ is
// deliverable. *n counts the budget spent so far; runTrace never spends
// past maxInstrs.
//
//camo:hotpath
func (c *CPU) runTrace(b *codeBlock, t *trace, n *uint64, maxInstrs uint64) (stop Stop, done bool) {
	s := runState{
		entry:    c.PC,
		startGen: c.cluster.execGen,
		canIRQ:   c.EL == 0 && !c.IRQMasked,
		ldVP:     ^uint64(0),
		stVP:     ^uint64(0),
	}
	code := b.instrs
	if t != nil {
		code, s.at, s.looping = t.instrs, t.at, t.looping
	} else {
		s.at, s.taken = seqAt[:len(code)+1], &b.taken
	}
	for {
		// A lap runs the whole body unless the budget ends inside it.
		// The budget spent so far is *n plus the unflushed -s.mark (idx
		// is 0): flushes move retirements into *n without changing the
		// sum.
		end := len(code)
		if left := maxInstrs - *n + s.mark; left < uint64(end) {
			end = int(left)
		}
		idx := 0
		for ; idx < end; idx++ {
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
			case opMOVImm:
				// Every instruction of the chain costs one cycle.
				if k := int(ins.ImmS); idx+k <= end {
					c.SetReg(ins.Rd, uint64(ins.Imm))
					idx += k - 1
				} else {
					c.SetReg(ins.Rd, uint64(ins.Imm)&(uint64(0xFFFF)<<ins.Shift))
				}
			case insn.OpADR:
				c.SetReg(ins.Rd, s.pc(idx)+uint64(ins.Imm))
			case insn.OpADRP:
				c.SetReg(ins.Rd, s.pc(idx)&^uint64(4095)+uint64(ins.Imm)*4096)
			case insn.OpUBFM:
				r, w := uint(ins.ImmR), uint(ins.ImmS)
				src := c.Reg(ins.Rn)
				var v uint64
				if w >= r {
					v = src >> r & maskBits(w-r+1)
				} else {
					v = (src & maskBits(w+1)) << (64 - r)
				}
				c.SetReg(ins.Rd, v)
			case insn.OpBFM:
				r, w := uint(ins.ImmR), uint(ins.ImmS)
				src := c.Reg(ins.Rn)
				dst := c.Reg(ins.Rd)
				if w >= r {
					m := maskBits(w - r + 1)
					dst = dst&^m | (src >> r & m)
				} else {
					m := maskBits(w + 1)
					dst = dst&^(m<<(64-r)) | (src&m)<<(64-r)
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
			// Every op above costs exactly costALU per instruction and
			// provably advances the PC to at[idx+1].
			continue

		slow:
			{
				var next uint64
				switch op {
				case insn.OpB:
					next = s.pc(idx) + uint64(ins.Imm)
				case insn.OpBL:
					pc := s.pc(idx)
					c.X[insn.LR] = pc + insn.Size
					next = pc + uint64(ins.Imm)
				case insn.OpBcond:
					pc := s.pc(idx)
					next = pc + insn.Size
					if c.condHolds(ins.Cond) {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpCBZ:
					pc := s.pc(idx)
					next = pc + insn.Size
					if c.Reg(ins.Rd) == 0 {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpCBNZ:
					pc := s.pc(idx)
					next = pc + insn.Size
					if c.Reg(ins.Rd) != 0 {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpBR, insn.OpRET:
					next = c.Reg(ins.Rn)
				case insn.OpBLR:
					c.X[insn.LR] = s.pc(idx) + insn.Size
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
					c.flush(&s, n, idx, s.pc(idx))
					if c.WriteSys(ins.Sys, c.Reg(ins.Rd)) != nil {
						goto undef
					}
					goto sequential
				case insn.OpMRS:
					c.flush(&s, n, idx, s.pc(idx))
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
					if addr>>mem.PageShift == s.ldVP && off+size <= mem.PageSize {
						c.SetReg(ins.Rd, hostLoadN(s.ldPG, off, size))
					} else if pg, o, _, ok := c.MMU.HostData(addr, c.EL, size, mmu.Load); ok {
						s.ldVP, s.ldPG = addr>>mem.PageShift, pg
						c.SetReg(ins.Rd, hostLoadN(pg, o, size))
					} else {
						s.ldVP, s.stVP = ^uint64(0), ^uint64(0)
						v, f, err := c.loadMem(addr, int(size))
						if err != nil {
							return c.failAt(&s, n, idx, err)
						}
						if f != nil {
							c.abortAt(&s, n, idx, f)
							return Stop{}, false
						}
						c.SetReg(ins.Rd, v)
					}
					if op == insn.OpLDRpost {
						c.setRegSP(ins.Rn, base+uint64(ins.Imm))
					}
					goto sequential
				case opLDPRun:
					// Fused LDPs: one page probe for all 16·k bytes.
					if k := int(ins.ImmS); idx+k <= end {
						if pg, off, ok := c.loadRunPage(&s, c.regSP(ins.Rn)+uint64(ins.Imm), 16*uint64(k)); ok {
							for j := idx; j < idx+k; j++ {
								c.SetReg(code[j].Rd, hostLoad64(pg, off))
								c.SetReg(code[j].Rm, hostLoad64(pg, off+8))
								off += 16
							}
							idx += k - 1
							s.extra += uint64(k) * (costLoadPair - 1)
							continue
						}
					}
					op = insn.OpLDP
					fallthrough
				case insn.OpLDP, insn.OpLDPpost:
					base := c.regSP(ins.Rn)
					addr := base
					if op == insn.OpLDP {
						addr = base + uint64(ins.Imm)
					}
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == s.ldVP && off+16 <= mem.PageSize {
						c.SetReg(ins.Rd, hostLoad64(s.ldPG, off))
						c.SetReg(ins.Rm, hostLoad64(s.ldPG, off+8))
					} else if pg, o, _, ok := c.MMU.HostData(addr, c.EL, 16, mmu.Load); ok {
						s.ldVP, s.ldPG = addr>>mem.PageShift, pg
						c.SetReg(ins.Rd, hostLoad64(pg, o))
						c.SetReg(ins.Rm, hostLoad64(pg, o+8))
					} else {
						s.ldVP, s.stVP = ^uint64(0), ^uint64(0)
						v1, f, err := c.loadMem(addr, 8)
						if err != nil {
							return c.failAt(&s, n, idx, err)
						}
						if f == nil {
							var v2 uint64
							v2, f, err = c.loadMem(addr+8, 8)
							if err != nil {
								return c.failAt(&s, n, idx, err)
							}
							if f == nil {
								c.SetReg(ins.Rd, v1)
								c.SetReg(ins.Rm, v2)
							}
						}
						if f != nil {
							c.abortAt(&s, n, idx, f)
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
					if addr>>mem.PageShift == s.stVP && off+size <= mem.PageSize {
						if g, trusted := c.storeCellMemo(s.stPN); g != nil || !trusted {
							c.noteGuestStore(s.stPN)
						}
						hostStoreN(s.stPG, off, size, c.Reg(ins.Rd))
					} else if pg, o, pn, ok := c.MMU.HostData(addr, c.EL, size, mmu.Store); ok {
						s.stVP, s.stPG, s.stPN = addr>>mem.PageShift, pg, pn
						if g, trusted := c.storeCellMemo(pn); g != nil || !trusted {
							c.noteGuestStore(pn)
						}
						hostStoreN(pg, o, size, c.Reg(ins.Rd))
					} else {
						s.ldVP, s.stVP = ^uint64(0), ^uint64(0)
						f, err := c.storeMem(addr, int(size), c.Reg(ins.Rd))
						if err != nil {
							return c.failAt(&s, n, idx, err)
						}
						if f != nil {
							c.abortAt(&s, n, idx, f)
							return Stop{}, false
						}
					}
					if op == insn.OpSTRpre {
						c.setRegSP(ins.Rn, addr)
					}
					goto stored
				case opSTPRun:
					// Fused STPs: one page probe for all 16·k bytes, on a
					// page no store of the run can sever a trace on.
					if k := int(ins.ImmS); idx+k <= end {
						if pg, off, ok := c.storeRunPage(&s, c.regSP(ins.Rn)+uint64(ins.Imm), 16*uint64(k)); ok {
							for j := idx; j < idx+k; j++ {
								hostStore64(pg, off, c.Reg(code[j].Rd))
								hostStore64(pg, off+8, c.Reg(code[j].Rm))
								off += 16
							}
							idx += k - 1
							s.extra += uint64(k) * (costStorePair - 1)
							goto hazard
						}
					}
					op = insn.OpSTP
					fallthrough
				case insn.OpSTP, insn.OpSTPpre:
					base := c.regSP(ins.Rn)
					addr := base + uint64(ins.Imm)
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == s.stVP && off+16 <= mem.PageSize {
						if g, trusted := c.storeCellMemo(s.stPN); g != nil || !trusted {
							c.noteGuestStore(s.stPN)
						}
						hostStore64(s.stPG, off, c.Reg(ins.Rd))
						hostStore64(s.stPG, off+8, c.Reg(ins.Rm))
					} else if pg, o, pn, ok := c.MMU.HostData(addr, c.EL, 16, mmu.Store); ok {
						s.stVP, s.stPG, s.stPN = addr>>mem.PageShift, pg, pn
						if g, trusted := c.storeCellMemo(pn); g != nil || !trusted {
							c.noteGuestStore(pn)
						}
						hostStore64(pg, o, c.Reg(ins.Rd))
						hostStore64(pg, o+8, c.Reg(ins.Rm))
					} else {
						s.ldVP, s.stVP = ^uint64(0), ^uint64(0)
						f, err := c.storeMem(addr, 8, c.Reg(ins.Rd))
						if err != nil {
							return c.failAt(&s, n, idx, err)
						}
						if f == nil {
							f, err = c.storeMem(addr+8, 8, c.Reg(ins.Rm))
							if err != nil {
								return c.failAt(&s, n, idx, err)
							}
						}
						if f != nil {
							c.abortAt(&s, n, idx, f)
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
					c.flush(&s, n, idx, s.pc(idx))
					c.obsLocal.V[obs.CSlowFallback]++
					stop, done = c.execute(ins)
					*n++
					s.mark++ // execute did its own accounting
					if done {
						c.obsLocal.V[obs.CTraceExitStop]++
						return stop, true
					}
					s.ldVP, s.stVP = ^uint64(0), ^uint64(0)
					if c.PC != s.pc(idx+1) {
						c.obsLocal.V[obs.CTraceExitBranch]++
						return Stop{}, false
					}
					continue
				}
				// Branch epilogue: the only inline ops that can diverge
				// from the fused successor (costBranch == costALU == 1).
				if next != s.pc(idx+1) {
					if s.taken != nil {
						*s.taken = next
					}
					c.flush(&s, n, idx+1, next)
					c.obsLocal.V[obs.CTraceExitBranch]++
					return Stop{}, false
				}
				continue
			}

		sequential:
			// Loads, keyed PAuth and MSR/MRS: a per-op cost and a
			// sequential PC, which cannot leave the body's successor.
			s.extra += costTab[op] - 1
			continue

		stored:
			s.extra += costTab[op] - 1
		hazard:
			// Store hazards: the store may have patched code anywhere in
			// the cluster (execGen) or hit a device that raised an IRQ.
			if c.cluster.execGen != s.startGen || (s.canIRQ && c.IRQPending) {
				c.flush(&s, n, idx+1, s.pc(idx+1))
				if c.cluster.execGen != s.startGen {
					c.obsLocal.V[obs.CTraceExitHazard]++
				} else {
					c.obsLocal.V[obs.CTraceExitIRQ]++
				}
				return Stop{}, false
			}
			continue

		undef:
			c.flush(&s, n, idx, s.pc(idx))
			c.obsLocal.V[obs.CTraceExitFault]++
			c.undefined()
			*n++
			return Stop{}, false
		}
		// Body complete or budget spent. A looping body re-enters
		// directly: its fused back-edge has already proven the PC is the
		// entry VA, so only the IRQ and cross-CPU invalidation clauses
		// need re-checking (the next lap caps itself at the budget).
		if end == len(code) && s.looping && !(s.canIRQ && c.IRQPending) &&
			c.cluster.execGen == s.startGen {
			s.mark -= uint64(len(code))
			continue
		}
		c.flush(&s, n, idx, s.pc(idx))
		switch {
		case end < len(code):
			c.obsLocal.V[obs.CTraceExitBudget]++
		case !s.looping:
			c.obsLocal.V[obs.CTraceExitEnd]++
		case s.canIRQ && c.IRQPending:
			c.obsLocal.V[obs.CTraceExitIRQ]++
		default:
			c.obsLocal.V[obs.CTraceExitHazard]++
		}
		return Stop{}, false
	}
}

// abortAt raises the data abort f for the instruction at idx, which
// retires nothing but spends a step of the budget.
func (c *CPU) abortAt(s *runState, n *uint64, idx int, f *mmu.Fault) {
	c.flush(s, n, idx, s.pc(idx))
	c.obsLocal.V[obs.CTraceExitFault]++
	c.dataAbort(f)
	*n++
}

// failAt stops the machine on a bus error at the instruction at idx.
func (c *CPU) failAt(s *runState, n *uint64, idx int, err error) (Stop, bool) {
	c.flush(s, n, idx, s.pc(idx))
	return Stop{Kind: StopError, Err: err}, true
}
