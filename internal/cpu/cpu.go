// Package cpu implements the simulated AArch64 core: architectural state,
// a block-structured fetch–decode–execute pipeline (software TLB in the
// mmu package, decoded basic-block cache here), the exception model,
// PAuth execution semantics driven by the pac package, and a cycle model
// calibrated to the paper's PA-analogue (see cost.go).
package cpu

import (
	"fmt"
	"sync/atomic"

	"camouflage/internal/insn"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/obs"
	"camouflage/internal/pac"
)

// totalCycles/totalRetired aggregate, across every CPU in the process,
// the work done by completed Run calls. The experiment harness snapshots
// them around each experiment to report simulated throughput (RunStats)
// without threading counters through every layer.
var totalCycles, totalRetired atomic.Uint64

// TotalCounters returns the process-wide simulated (cycles, instructions)
// retired by all Run calls so far.
func TotalCounters() (cycles, instrs uint64) {
	return totalCycles.Load(), totalRetired.Load()
}

// Features selects the architecture revision of the simulated core.
type Features struct {
	// PAuth is true on ARMv8.3-A cores. When false (ARMv8.0), the
	// register-form PAuth instructions are undefined, the HINT-space
	// forms (PACIB1716 etc.) execute as NOPs, and MSR to key registers is
	// undefined — the situation the paper's backwards-compatible build
	// targets (§5.5).
	PAuth bool
}

// Exception classes (ESR_EL1.EC).
const (
	ECUnknown     = 0x00
	ECSVC64       = 0x15
	ECIAbortLower = 0x20
	ECIAbortSame  = 0x21
	ECDAbortLower = 0x24
	ECDAbortSame  = 0x25
)

// Vector table offsets from VBAR_EL1 (the subset Linux uses).
const (
	VecSyncCurrent = 0x200 // synchronous exception from the current EL
	VecIRQCurrent  = 0x280
	VecSyncLower   = 0x400 // synchronous exception from a lower EL
	VecIRQLower    = 0x480
)

// StopKind says why Run returned.
type StopKind int

// Stop reasons.
const (
	StopLimit StopKind = iota // instruction budget exhausted
	StopHLT                   // guest executed HLT
	StopError                 // unrecoverable simulation error
)

// Stop describes why Run returned.
type Stop struct {
	Kind StopKind
	// Code is the HLT immediate for StopHLT.
	Code uint16
	// Err holds detail for StopError.
	Err error
}

// MSRHook observes or intercepts system-register writes. Returning true
// consumes the write (the hypervisor lockdown uses this to deny MMU
// control writes after boot). A hook may not change the translation
// regime (stage-1 tables, stage 2, MMU enable), the EL or the IRQ state
// (mask or pending), and may not store to guest memory: runTrace
// retires MSR inline and keeps running the trace, its page memos and
// its IRQ decision across the write (superblock.go).
type MSRHook func(reg insn.SysReg, val uint64) bool

// CPU is one simulated core.
type CPU struct {
	// X holds the general-purpose registers X0..X30.
	X [31]uint64
	// PC is the program counter.
	PC uint64
	// EL is the current exception level (0 or 1).
	EL int
	// NZCV condition flags.
	N, Z, C, V bool
	// IRQMasked is PSTATE.I.
	IRQMasked bool

	// sp is banked per EL (SP_EL0, SP_EL1).
	sp [2]uint64

	// Named system registers.
	SCTLR      uint64
	VBAR       uint64
	ELR        uint64
	SPSR       uint64
	ESR        uint64
	FAR        uint64
	TTBR0      uint64
	TTBR1      uint64
	CONTEXTIDR uint64
	TPIDR      uint64
	// TPIDR0 models TPIDR_EL0. SMP kernel builds repurpose it as the
	// per-CPU data base (the role TPIDR_EL1 plays on arm64 Linux, which
	// this model already spends on `current`): the host loads it with
	// the CPU's per-CPU frame VA at construction, and the kernel's
	// emitPerCPUAddr reads it with a single MRS.
	TPIDR0 uint64

	// Bus is the physical memory system.
	Bus *mem.Bus
	// MMU performs address translation.
	MMU *mmu.MMU
	// Signer implements the PAC primitive; its key bank mirrors the
	// APxKey system registers.
	Signer *pac.Signer
	// Feat is the architecture revision.
	Feat Features

	// Cycles counts simulated cycles; Retired counts instructions.
	Cycles  uint64
	Retired uint64

	// PACFailures counts AUT* mismatches (the poisoned-pointer events the
	// kernel's brute-force mitigation watches, §5.4).
	PACFailures uint64

	// OnMSR, if set, is consulted before any system-register write.
	OnMSR MSRHook

	// IRQPending is set by devices; checked between instructions when
	// unmasked at EL0 (the model takes IRQs only from EL0, as the paper's
	// measurements do not exercise nested kernel interrupts).
	IRQPending bool

	// NoBlockCache reverts fetch to the seed's per-word decode cache
	// (benchmarking baseline; set before running, not mid-flight).
	NoBlockCache bool

	// ID is the CPU's index within its machine (0 for the boot CPU).
	// Guest code reads it through MPIDR_EL1.
	ID int

	// cluster is the shared invalidation domain: code-page generation
	// cells, the execution generation and the memo epoch, through which
	// stores on one CPU invalidate cached blocks, entry memo slots and
	// memo verdicts on its peers (DESIGN.md §9).
	cluster *Cluster

	// blocks caches decoded straight-line runs keyed by entry PA — a
	// strictly per-CPU structure (like a hardware I-cache). A block never
	// crosses a page boundary, so one (page, generation-cell) pair per
	// block suffices for precise invalidation: the cells live in the
	// shared cluster, so peer stores invalidate this CPU's blocks too.
	blocks map[uint64]*codeBlock
	// EntryMemoHits counts block entries served by the entry memo
	// instead of a full fetchBlock (diagnostics).
	EntryMemoHits uint64
	// TracesBuilt counts superblock traces fused from hot blocks;
	// TraceFollows counts entries into fused traces (diagnostics; see
	// superblock.go). One-block runs are not trace entries.
	TracesBuilt  uint64
	TraceFollows uint64

	// entryMemo is the direct-mapped block-entry memo: memoized
	// fetchBlock resolutions keyed by the low bits of the entry PC. Every
	// block entry probes it first — whether reached by a sequential exit,
	// a direct or indirect branch, an ERET or an exception vector — and
	// every miss fills the slot right away.
	entryMemo [entryMemoSize]blockEntry

	// sgenPN/sgenCell are a tiny direct-mapped memo of cluster cell
	// lookups, the one lookup path of every store route: stores cluster
	// on a handful of pages (stack, per-CPU block, the workload's data),
	// so most stores resolve their code-invalidation check against this
	// array instead of the shared map. A nil cell is a valid memo ("page
	// never held code") only within one cellEpoch: any CPU decoding from
	// a fresh page moves the epoch, storeCellMemo then distrusts every
	// slot, and noteGuestStore empties the memo before refilling it.
	sgenPN    [8]uint64
	sgenCell  [8]*uint64
	memoEpoch uint64

	// legacyDecode is the seed's per-word decode cache, active only under
	// NoBlockCache.
	legacyDecode map[uint64]insn.Instr

	// obsLocal is this core's block of observability counter cells:
	// plain unsynchronized increments while the core runs (one
	// goroutine drives the core's machine, the same discipline its
	// registers rely on), drained into the process-wide obs registry by
	// flushObs when Run returns. obsBase snapshots the pre-existing
	// cumulative diagnostics (Cycles, Retired, memo/trace counts, MMU
	// and PAC counters) at the last flush so only deltas are published;
	// a counter that moved backwards (snapshot restore rewound it)
	// re-baselines instead of underflowing.
	obsLocal obs.Local
	obsBase  obsBaseline
}

// obsBaseline holds the last-flushed values of the cumulative
// diagnostic counters flushObs publishes as deltas.
type obsBaseline struct {
	cycles, retired                         uint64
	memoHits, tracesBuilt, traceFollows     uint64
	mmuHits, mmuMisses, mmuRearms, mmuWalks uint64
	pacSigns, pacAuths, pacFails            [pac.NumKeys]uint64
	qarmaRuns                               uint64
}

// obsDelta returns cur minus *base and re-baselines, treating a rewound
// counter (snapshot restore) as a fresh baseline.
func obsDelta(cur uint64, base *uint64) uint64 {
	d := cur - *base
	if cur < *base {
		d = 0
	}
	*base = cur
	return d
}

// flushObs drains this core's observability counters into the shared
// registry: the new event cells verbatim, the cumulative diagnostics as
// deltas against the last flush. Called when Run returns — never from
// the instruction loop — and allocation-free, so the zero-allocs
// steady-state contract holds with instrumentation compiled in.
func (c *CPU) flushObs() {
	l := &c.obsLocal
	b := &c.obsBase
	l.V[obs.CCycles] += obsDelta(c.Cycles, &b.cycles)
	l.V[obs.CRetired] += obsDelta(c.Retired, &b.retired)
	l.V[obs.CChainFollow] += obsDelta(c.EntryMemoHits, &b.memoHits)
	l.V[obs.CTraceBuild] += obsDelta(c.TracesBuilt, &b.tracesBuilt)
	l.V[obs.CTraceEnter] += obsDelta(c.TraceFollows, &b.traceFollows)
	if m := c.MMU; m != nil {
		l.V[obs.CTLBHit] += obsDelta(m.Hits, &b.mmuHits)
		l.V[obs.CTLBMiss] += obsDelta(m.Misses, &b.mmuMisses)
		l.V[obs.CHostRearm] += obsDelta(m.Rearms, &b.mmuRearms)
		l.V[obs.CS2Walk] += obsDelta(m.S2Walks, &b.mmuWalks)
	}
	if s := c.Signer; s != nil {
		for k := 0; k < pac.NumKeys; k++ {
			l.V[obs.CPACSignIA+obs.CounterID(k)] += obsDelta(s.Signs[k], &b.pacSigns[k])
			l.V[obs.CPACAuthIA+obs.CounterID(k)] += obsDelta(s.Auths[k], &b.pacAuths[k])
			l.V[obs.CPACFailIA+obs.CounterID(k)] += obsDelta(s.Fails[k], &b.pacFails[k])
		}
		l.V[obs.CPACQARMARun] += obsDelta(s.QARMARuns, &b.qarmaRuns)
	}
	l.Flush()
}

// codeBlock is one decoded straight-line run: the instructions from the
// entry PA up to and including the first control-flow instruction (or the
// page boundary).
type codeBlock struct {
	instrs []insn.Instr
	gen    uint64
	// genp points at the page's shared generation cell; *genp == gen
	// while the block is valid (the same condition fetchBlock checks
	// via the cluster map, without the map). The cell is shared across
	// the machine's CPUs, so a peer's store invalidates this block too.
	genp *uint64
	// heat counts entries into the block; at hotThreshold the run of
	// blocks starting here is fused into tr, a superblock trace
	// (superblock.go).
	heat uint32
	tr   *trace
	// taken is the PC the block's closing branch last left behind when
	// the block ran as a one-block view and side-exited there.
	// buildTrace reads it only for an indirect branch (RET, BR, BLR), as
	// that branch's guessed successor.
	taken uint64
}

// regime is the translation state a cached fetch result depends on —
// the same §3 contract a TLB entry obeys: the stage-1 table identity
// and generation for the VA's address side, the stage-2 generation and
// enable, the EL and the MMU enable. Any Map/Unmap, context-switch
// table swap, stage-2 Restrict/Clear or exception-level change moves
// one of them. Entry-memo slots and traces each hold one, taken by
// captureRegime and checked by regimeHolds, so a validity input added
// to the contract reaches both.
type regime struct {
	table *mmu.Table
	tgen  uint64
	s2gen uint64
	s2en  bool
	tt1   bool // the VA translates through TT1 (kernel side)
	mmuOn bool
	el    int8
}

// blockEntry is a memoized fetchBlock result: "entry PC pc resolved to
// block to under regime rg". Using it is sound only while rg holds and
// the target block itself is valid (to.gen == *to.genp, the pageGen
// clause).
type blockEntry struct {
	to *codeBlock
	pc uint64
	rg regime
}

// maxBlockInstrs bounds decode-ahead waste on pathological straight-line
// runs; a page holds at most 1024 instructions anyway.
const maxBlockInstrs = 256

// New returns a CPU wired to a fresh bus and MMU using the default VMSAv8
// layout, starting at EL1 with PAuth available. The CPU forms its own
// single-member cluster; NewPeer grows the machine.
func New(feat Features) *CPU {
	cfg := pac.DefaultConfig
	c := &CPU{
		Bus:       mem.NewBus(),
		MMU:       mmu.New(cfg),
		Signer:    pac.NewSigner(cfg),
		Feat:      feat,
		EL:        1,
		IRQMasked: true,
		cluster:   newCluster(),
		blocks:    make(map[uint64]*codeBlock),
	}
	// Wire the MMU's host-pointer fast path to this CPU's bus: data-side
	// TLB fills cache the backing RAM page so repeat loads/stores skip
	// bus routing entirely (device windows never get a pointer).
	c.MMU.Mem = c.Bus
	c.clearStoreGenMemo()
	return c
}

// NewPeer returns a sibling core of the same simulated machine: it
// shares c's physical bus (RAM and device windows), stage-1 kernel
// table, stage-2 overlay, MMU-enable state and invalidation cluster, but
// owns its own architectural state, TLB, decoded-block cache and entry
// memo — exactly the per-core/shared split of real SMP hardware. The
// peer starts with its own empty user table (TT0 is swapped per-CPU on
// context switch) and its own PAuth key bank (keys are installed per
// core by the secondary boot path, as on hardware).
func (c *CPU) NewPeer(id int) *CPU {
	p := &CPU{
		Bus:       c.Bus,
		MMU:       mmu.New(c.MMU.Cfg),
		Signer:    pac.NewSigner(c.MMU.Cfg),
		Feat:      c.Feat,
		EL:        1,
		IRQMasked: true,
		ID:        id,
		cluster:   c.cluster,
		blocks:    make(map[uint64]*codeBlock),
	}
	p.MMU.TT1 = c.MMU.TT1
	p.MMU.S2 = c.MMU.S2
	p.MMU.Enabled = c.MMU.Enabled
	p.MMU.NoTLB = c.MMU.NoTLB
	p.MMU.NoHostPtr = c.MMU.NoHostPtr
	p.MMU.Mem = c.Bus
	p.clearStoreGenMemo()
	return p
}

// clearStoreGenMemo empties the cell lookup memo (no physical page
// number is all-ones, so ^0 marks a slot empty) and re-synchronises it
// with the cluster's cell epoch.
func (c *CPU) clearStoreGenMemo() {
	for i := range c.sgenPN {
		c.sgenPN[i] = ^uint64(0)
		c.sgenCell[i] = nil
	}
	c.memoEpoch = c.cluster.cellEpoch
}

// Reg reads Xn (register 31 reads as zero).
func (c *CPU) Reg(r insn.Reg) uint64 {
	if r >= 31 {
		return 0
	}
	return c.X[r]
}

// SetReg writes Xn (writes to register 31 are discarded).
func (c *CPU) SetReg(r insn.Reg, v uint64) {
	if r < 31 {
		c.X[r] = v
	}
}

// regSP reads Xn with register 31 meaning SP (current EL).
func (c *CPU) regSP(r insn.Reg) uint64 {
	if r == 31 {
		return c.sp[c.EL]
	}
	return c.X[r]
}

// setRegSP writes Xn with register 31 meaning SP.
func (c *CPU) setRegSP(r insn.Reg, v uint64) {
	if r == 31 {
		c.sp[c.EL] = v
		return
	}
	c.X[r] = v
}

// SP returns the stack pointer of the given EL.
func (c *CPU) SP(el int) uint64 { return c.sp[el] }

// SetSP sets the stack pointer of the given EL.
func (c *CPU) SetSP(el int, v uint64) { c.sp[el] = v }

// CurrentSP returns the active stack pointer.
func (c *CPU) CurrentSP() uint64 { return c.sp[c.EL] }

// keyFor maps a PAuth key system register to (key id, is-high-half). The
// ten key registers occupy a contiguous encoding range (op0=3, op1=0,
// CRn=2, CRm=1..3), so every other register — including the ESR/ELR/SPSR
// traffic of a hot trap path — is rejected with two compares.
func keyFor(r insn.SysReg) (pac.KeyID, bool, bool) {
	if r < insn.APIAKeyLo_EL1 || r > insn.APGAKeyHi_EL1 {
		return 0, false, false
	}
	switch r {
	case insn.APIAKeyLo_EL1:
		return pac.KeyIA, false, true
	case insn.APIAKeyHi_EL1:
		return pac.KeyIA, true, true
	case insn.APIBKeyLo_EL1:
		return pac.KeyIB, false, true
	case insn.APIBKeyHi_EL1:
		return pac.KeyIB, true, true
	case insn.APDAKeyLo_EL1:
		return pac.KeyDA, false, true
	case insn.APDAKeyHi_EL1:
		return pac.KeyDA, true, true
	case insn.APDBKeyLo_EL1:
		return pac.KeyDB, false, true
	case insn.APDBKeyHi_EL1:
		return pac.KeyDB, true, true
	case insn.APGAKeyLo_EL1:
		return pac.KeyGA, false, true
	case insn.APGAKeyHi_EL1:
		return pac.KeyGA, true, true
	}
	return 0, false, false
}

// WriteSys performs an MSR write (also used by the bootloader to establish
// initial state). A key-register write on a core without PAuth is
// undefined and fails before the OnMSR hook sees it.
func (c *CPU) WriteSys(r insn.SysReg, v uint64) error {
	id, hi, isKey := keyFor(r)
	if isKey && !c.Feat.PAuth {
		return fmt.Errorf("cpu: MSR %v undefined without PAuth", r)
	}
	if c.OnMSR != nil && c.OnMSR(r, v) {
		return nil
	}
	if isKey {
		k := c.Signer.Key(id)
		if hi {
			k.Hi = v
		} else {
			k.Lo = v
		}
		c.Signer.SetKey(id, k)
		return nil
	}
	switch r {
	case insn.SCTLR_EL1:
		c.SCTLR = v
	case insn.VBAR_EL1:
		c.VBAR = v
	case insn.ELR_EL1:
		c.ELR = v
	case insn.SPSR_EL1:
		c.SPSR = v
	case insn.ESR_EL1:
		c.ESR = v
	case insn.FAR_EL1:
		c.FAR = v
	case insn.TTBR0_EL1:
		c.TTBR0 = v
	case insn.TTBR1_EL1:
		c.TTBR1 = v
	case insn.CONTEXTIDR_EL1:
		c.CONTEXTIDR = v
	case insn.TPIDR_EL1:
		c.TPIDR = v
	case insn.TPIDR_EL0:
		c.TPIDR0 = v
	case insn.SP_EL0:
		c.sp[0] = v
	default:
		return fmt.Errorf("cpu: MSR to unknown register %v", r)
	}
	return nil
}

// ReadSys performs an MRS read.
func (c *CPU) ReadSys(r insn.SysReg) (uint64, error) {
	if id, hi, isKey := keyFor(r); isKey {
		if !c.Feat.PAuth {
			return 0, fmt.Errorf("cpu: MRS %v undefined without PAuth", r)
		}
		k := c.Signer.Key(id)
		if hi {
			return k.Hi, nil
		}
		return k.Lo, nil
	}
	switch r {
	case insn.SCTLR_EL1:
		return c.SCTLR, nil
	case insn.VBAR_EL1:
		return c.VBAR, nil
	case insn.ELR_EL1:
		return c.ELR, nil
	case insn.SPSR_EL1:
		return c.SPSR, nil
	case insn.ESR_EL1:
		return c.ESR, nil
	case insn.FAR_EL1:
		return c.FAR, nil
	case insn.TTBR0_EL1:
		return c.TTBR0, nil
	case insn.TTBR1_EL1:
		return c.TTBR1, nil
	case insn.CONTEXTIDR_EL1:
		return c.CONTEXTIDR, nil
	case insn.TPIDR_EL1:
		return c.TPIDR, nil
	case insn.TPIDR_EL0:
		return c.TPIDR0, nil
	case insn.MPIDR_EL1:
		// Aff0 carries the core number (read-only, as in hardware).
		return uint64(c.ID), nil
	case insn.SP_EL0:
		return c.sp[0], nil
	case insn.PMCCNTR_EL0:
		return c.Cycles, nil
	case insn.CNTFRQ_EL0:
		return ClockHz, nil
	case insn.CNTVCT_EL0:
		return c.Cycles, nil // 1:1 timer for simplicity
	}
	return 0, fmt.Errorf("cpu: MRS from unknown register %v", r)
}

// loadMem translates and loads size bytes through the bus: the slow
// tier of every load. It holds no host pointer: runTrace probes
// MMU.HostData itself and calls loadMem only on a miss, and the seed
// interpreter runs with the TLB off, where HostData never hits.
// Device-mapped and untouched pages never carry a host pointer either.
func (c *CPU) loadMem(va uint64, size int) (uint64, *mmu.Fault, error) {
	pa, f := c.MMU.Translate(va, mmu.Load, c.EL)
	if f != nil {
		return 0, f, nil
	}
	v, err := c.Bus.Load(pa, size)
	return v, nil, err
}

// storeMem translates and stores size bytes, invalidating any decoded
// instructions the store covers (self-modifying code, bootloader
// patching). Invalidation is page-granular: if a touched page ever held a
// cached block, its generation is bumped, which kills every block on the
// page — including blocks that merely *span* the written range from an
// earlier entry point (the seed's word-granular delete missed those).
// execGen moves once per store, not once per touched page: the execution
// loop only compares it for equality, so one bump carries the same
// information as several.
//
// Like loadMem, storeMem is the slow tier and holds no host pointer:
// runTrace's host-pointer stores run the same invalidation check
// (noteGuestStore) themselves. A store that straddles a page boundary
// invalidates both pages.
func (c *CPU) storeMem(va uint64, size int, v uint64) (*mmu.Fault, error) {
	pa, f := c.MMU.Translate(va, mmu.Store, c.EL)
	if f != nil {
		return f, nil
	}
	last := (pa + uint64(size) - 1) >> mmu.PageShift
	for p := pa >> mmu.PageShift; p <= last; p++ {
		c.noteGuestStore(p)
	}
	if c.NoBlockCache && c.legacyDecode != nil {
		for a := pa &^ 3; a < pa+uint64(size); a += 4 {
			delete(c.legacyDecode, a)
		}
	}
	return nil, c.Bus.Store(pa, size, v)
}

// noteGuestStore runs the block-cache invalidation contract for a guest
// store to physical page pn: if the page ever held code — on any CPU of
// the cluster — bump its generation cell and the shared execGen. Every
// store route calls it: the trace's host-pointer stores, and storeMem
// once per touched page. The cell comes from the direct-mapped
// sgenPN/sgenCell memo when storeCellMemo trusts it, else from the
// cluster map, and the memo is refilled.
func (c *CPU) noteGuestStore(pn uint64) {
	g, ok := c.storeCellMemo(pn)
	if !ok {
		if c.cluster.cellEpoch != c.memoEpoch {
			c.clearStoreGenMemo()
		}
		g = c.cluster.lookup(pn)
		c.sgenPN[pn&7], c.sgenCell[pn&7] = pn, g
	}
	if g != nil {
		*g++
		c.cluster.execGen++
		c.obsLocal.V[obs.CBlockSever]++
	}
}

// storeCellMemo probes the store-cell memo for page pn: the memoized
// cell (nil: the page never held code) and whether it may be trusted.
// It may while the slot holds pn and the cluster's cell epoch has not
// moved since the memo was last emptied, because a peer decoding from a
// fresh page turns a memoized nil verdict stale. Small enough to inline,
// so the trace's stores to data pages cost no call.
func (c *CPU) storeCellMemo(pn uint64) (*uint64, bool) {
	i := pn & 7
	return c.sgenCell[i], c.sgenPN[i] == pn && c.cluster.cellEpoch == c.memoEpoch
}

// fetchBlock translates PC and returns the decoded basic block starting
// there, decoding it if absent or stale.
func (c *CPU) fetchBlock() (*codeBlock, *mmu.Fault, error) {
	pa, f := c.MMU.Translate(c.PC, mmu.Fetch, c.EL)
	if f != nil {
		return nil, f, nil
	}
	if b, ok := c.blocks[pa]; ok {
		if b.gen == *b.genp {
			return b, nil, nil
		}
		// The re-decode replaces the stale block; a trace fused onto it
		// dies with it.
		if b.tr != nil {
			c.obsLocal.V[obs.CTraceSeverStale]++
		}
	}
	return c.decodeBlock(pa)
}

// decodeBlock decodes the straight-line run at pa: instructions are
// appended until the first control-flow or system instruction, the page
// boundary, or the block size cap. The block snapshots its page's
// generation so stores can invalidate it precisely.
func (c *CPU) decodeBlock(pa uint64) (*codeBlock, *mmu.Fault, error) {
	page := pa >> mmu.PageShift
	// The shared cell is created on first decode; cluster.cell bumps the
	// cell epoch then, which invalidates every CPU's memoized "no cell"
	// verdict for this page.
	genp := c.cluster.cell(page)
	b := &codeBlock{gen: *genp, genp: genp}
	end := (page + 1) << mmu.PageShift
	for a := pa; a < end && len(b.instrs) < maxBlockInstrs; a += insn.Size {
		w, err := c.Bus.Load(a, 4)
		if err != nil {
			if len(b.instrs) == 0 {
				return nil, nil, err
			}
			break
		}
		i := insn.Decode(uint32(w))
		b.instrs = append(b.instrs, i)
		if endsBlock(i.Op) {
			break
		}
	}
	c.blocks[pa] = b
	c.obsLocal.V[obs.CBlockFill]++
	return b, nil, nil
}

// endsBlock reports whether op terminates a straight-line decode run:
// anything that branches, takes an exception or halts. MSR does not: no
// system-register write changes the translation regime, the EL or the
// IRQ mask (see MSRHook), and PAuth keys and enables are read live.
func endsBlock(op insn.Op) bool {
	switch op {
	case insn.OpB, insn.OpBL, insn.OpBcond, insn.OpCBZ, insn.OpCBNZ,
		insn.OpBR, insn.OpBLR, insn.OpRET,
		insn.OpBLRAA, insn.OpBLRAB, insn.OpBRAA, insn.OpBRAB,
		insn.OpRETAA, insn.OpRETAB,
		insn.OpERET, insn.OpSVC, insn.OpHLT, insn.OpInvalid:
		return true
	}
	return false
}

// fetchLegacy is the seed's per-word fetch path (NoBlockCache baseline).
func (c *CPU) fetchLegacy() (insn.Instr, *mmu.Fault, error) {
	pa, f := c.MMU.Translate(c.PC, mmu.Fetch, c.EL)
	if f != nil {
		return insn.Instr{}, f, nil
	}
	if c.legacyDecode == nil {
		c.legacyDecode = make(map[uint64]insn.Instr)
	}
	if i, ok := c.legacyDecode[pa]; ok {
		return i, nil, nil
	}
	w, err := c.Bus.Load(pa, 4)
	if err != nil {
		return insn.Instr{}, nil, err
	}
	i := insn.Decode(uint32(w))
	c.legacyDecode[pa] = i
	return i, nil, nil
}

// InvalidateDecode drops every decoded instruction (used after host-side
// writes to guest code, e.g. module loading or bootloader key-hiding,
// which bypass storeMem's tracking). This CPU's block map and entry memo
// are replaced; every *other* CPU's blocks and memo slots die through
// the shared cluster: invalidateAll bumps every generation cell, and a
// block (or the target of a memo slot) validates only while its cell is
// unchanged — so nothing stale stays reachable anywhere in the machine.
func (c *CPU) InvalidateDecode() {
	c.blocks = make(map[uint64]*codeBlock)
	c.cluster.invalidateAll()
	c.legacyDecode = nil
	c.entryMemo = [entryMemoSize]blockEntry{}
	c.clearStoreGenMemo()
}

// LiveTraces counts the superblock traces currently attached to this
// CPU's cached blocks (tests and diagnostics: a fork or reset must come
// up with none).
func (c *CPU) LiveTraces() int {
	live := 0
	for _, b := range c.blocks {
		if b.tr != nil {
			live++
		}
	}
	return live
}

// TakeException vectors to EL1. kind is a Vec* offset, ec the exception
// class and iss the syndrome detail; far is captured for aborts.
func (c *CPU) TakeException(vec uint64, ec uint64, iss uint64, far uint64) {
	spsr := c.pstate()
	c.SPSR = spsr
	c.ELR = c.PC
	c.ESR = ec<<26 | iss&0x1FFFFFF
	c.FAR = far
	c.EL = 1
	c.IRQMasked = true
	c.PC = c.VBAR + vec
	c.Cycles += costExcEntry
}

// pstate packs the PSTATE bits the model keeps into SPSR format: mode in
// bits 3:0 (0 = EL0t, 5 = EL1h), IRQ mask in bit 7, NZCV in bits 31:28.
func (c *CPU) pstate() uint64 {
	var v uint64
	if c.EL == 1 {
		v = 5
	}
	if c.IRQMasked {
		v |= 1 << 7
	}
	if c.V {
		v |= 1 << 28
	}
	if c.C {
		v |= 1 << 29
	}
	if c.Z {
		v |= 1 << 30
	}
	if c.N {
		v |= 1 << 31
	}
	return v
}

// setPstate restores PSTATE from SPSR format.
func (c *CPU) setPstate(v uint64) {
	if v&0xF == 5 {
		c.EL = 1
	} else {
		c.EL = 0
	}
	c.IRQMasked = v&(1<<7) != 0
	c.V = v&(1<<28) != 0
	c.C = v&(1<<29) != 0
	c.Z = v&(1<<30) != 0
	c.N = v&(1<<31) != 0
}

// pauthEnabled reports whether the SCTLR enable bit for the key is set.
func (c *CPU) pauthEnabled(id pac.KeyID) bool {
	switch id {
	case pac.KeyIA:
		return c.SCTLR&insn.SCTLREnIA != 0
	case pac.KeyIB:
		return c.SCTLR&insn.SCTLREnIB != 0
	case pac.KeyDA:
		return c.SCTLR&insn.SCTLREnDA != 0
	case pac.KeyDB:
		return c.SCTLR&insn.SCTLREnDB != 0
	}
	return true // GA has no enable bit
}

// pacSign signs value in register rd with modifier from rn under key id.
func (c *CPU) pacSign(rd, rn insn.Reg, id pac.KeyID) {
	if !c.pauthEnabled(id) {
		return // architectural NOP when disabled
	}
	v := c.Reg(rd)
	mod := c.regSP(rn)
	c.SetReg(rd, c.Signer.Sign(v, mod, id))
}

// pacAuth authenticates register rd with modifier from rn under key id,
// returning the result (poisoned on failure).
func (c *CPU) pacAuth(rd, rn insn.Reg, id pac.KeyID) uint64 {
	v := c.Reg(rd)
	if !c.pauthEnabled(id) {
		return v
	}
	mod := c.regSP(rn)
	out, ok := c.Signer.Auth(v, mod, id)
	if !ok {
		c.PACFailures++
	}
	c.SetReg(rd, out)
	return out
}
