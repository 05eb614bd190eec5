// Package mmu models the VMSAv8 two-stage address translation relevant to
// the paper: stage 1 under kernel control (TTBR0_EL1 for user addresses,
// TTBR1_EL1 for kernel addresses, selected by bit 55 — Table 1), and
// stage 2 under hypervisor control.
//
// The essential architectural constraint reproduced here (Appendix A.2) is
// that the stage-1 translation-table format makes every valid mapping
// implicitly *readable* at EL1 — so execute-only memory for kernel code
// cannot be expressed at stage 1, and Camouflage's XOM key page must be
// enforced by removing the read permission in the hypervisor's stage-2
// tables.
package mmu

import (
	"fmt"

	"camouflage/internal/mem"
	"camouflage/internal/pac"
)

// PageSize and PageShift mirror the 4 KiB granule of the paper's setup.
const (
	PageSize  = 4096
	PageShift = 12
)

// Perm is a stage-1 permission set, split per exception level.
type Perm uint8

// Stage-1 permission bits.
const (
	R0 Perm = 1 << iota // EL0 read
	W0                  // EL0 write
	X0                  // EL0 execute
	R1                  // EL1 read
	W1                  // EL1 write
	X1                  // EL1 execute
)

// Common permission combinations.
const (
	// KernelText is kernel code: readable and executable at EL1 only.
	KernelText = R1 | X1
	// KernelData is kernel data: read/write at EL1 only.
	KernelData = R1 | W1
	// KernelRO is read-only kernel data (.rodata, operations structures).
	KernelRO = R1
	// UserText is user code (readable/executable at EL0; EL1 read implied).
	UserText = R0 | X0 | R1
	// UserData is user data.
	UserData = R0 | W0 | R1 | W1
)

// AccessKind distinguishes instruction fetch from data access.
type AccessKind int

// Access kinds.
const (
	Fetch AccessKind = iota
	Load
	Store
)

// String returns a diagnostic name.
func (k AccessKind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return "access?"
}

// FaultKind classifies a translation failure.
type FaultKind int

// Fault kinds.
const (
	FaultNone FaultKind = iota
	// FaultAddressSize: the VA is outside the canonical ranges of Table 1
	// (this is what a PAC-poisoned pointer produces).
	FaultAddressSize
	// FaultTranslation: no stage-1 mapping.
	FaultTranslation
	// FaultPermission: stage-1 permission violation.
	FaultPermission
	// FaultStage2: stage-2 (hypervisor) permission violation, e.g. an EL1
	// data read of the XOM key page.
	FaultStage2
)

// String returns a diagnostic name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultAddressSize:
		return "address-size"
	case FaultTranslation:
		return "translation"
	case FaultPermission:
		return "permission"
	case FaultStage2:
		return "stage2-permission"
	}
	return "fault?"
}

// Fault describes a failed translation.
type Fault struct {
	Kind   FaultKind
	VA     uint64
	Access AccessKind
	EL     int
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s fault on %s of %#x at EL%d", f.Kind, f.Access, f.VA, f.EL)
}

// PTE is a stage-1 page table entry.
type PTE struct {
	PA   uint64
	Perm Perm
}

// Table is one stage-1 translation table (the model keeps it as a map from
// VA page number to PTE rather than as an in-memory radix tree; the
// hypervisor locks the registers that point at it, so the abstraction does
// not change the attack surface the paper considers).
type Table struct {
	entries map[uint64]PTE
	// shared marks entries as copy-on-write: the map is referenced by at
	// least one clone and must be copied before the next mutation
	// (mutable() copies and clears the flag). Race-freedom of concurrent
	// Clone rests on a caller invariant, not on this flag alone: tables
	// reachable from a snapshot State are never mutated after capture,
	// so their flag stays true and Clone never writes it. Cloning a
	// *live* table concurrently with Map/Unmap is not supported.
	shared bool
	// gen is the table's invalidation generation. Every Map/Unmap bumps
	// it; TLB entries snapshot the generation at fill time, so a bump is a
	// broadcast TLBI for every translation cached from this table. This is
	// the "Map/Unmap paths must invalidate" half of the TLB contract
	// (DESIGN.md §3).
	gen uint64
}

// NewTable returns an empty stage-1 table.
func NewTable() *Table {
	return &Table{entries: make(map[uint64]PTE)}
}

// mutable returns the entries map, first un-sharing it (one full copy)
// if any clone still references it.
func (t *Table) mutable() map[uint64]PTE {
	if t.shared {
		cp := make(map[uint64]PTE, len(t.entries))
		for pn, pte := range t.entries {
			cp[pn] = pte
		}
		t.entries = cp
		t.shared = false
	}
	return t.entries
}

// Map installs a translation for the page containing va. Per VMSAv8
// (Appendix A.2), any valid stage-1 mapping is implicitly readable at EL1:
// R1 is forced on, which is exactly why stage-1 cannot express kernel XOM.
func (t *Table) Map(va, pa uint64, perm Perm) {
	t.mutable()[va>>PageShift] = PTE{PA: pa &^ (PageSize - 1), Perm: perm | R1}
	t.gen++
}

// Unmap removes the translation for the page containing va.
func (t *Table) Unmap(va uint64) {
	delete(t.mutable(), va>>PageShift)
	t.gen++
}

// Clone returns an independent copy-on-write copy of the table in O(1):
// both tables share the entries map until either mutates it. A shared
// source is not written (its flag is already set), so concurrent Clone
// calls on the same already-shared table — the snapshot fork path — are
// race-free. The clone starts at generation zero as a brand-new object:
// TLB entries snapshot the table *pointer* alongside the generation, so
// nothing cached from the original can ever hit against the clone.
func (t *Table) Clone() *Table {
	if !t.shared {
		t.shared = true
	}
	return &Table{entries: t.entries, shared: true}
}

// RestoreFrom replaces the table's contents with a copy-on-write view of
// src's, bumping the generation so every translation cached from this
// table is invalidated (the broadcast-TLBI contract of DESIGN.md §3).
func (t *Table) RestoreFrom(src *Table) {
	if !src.shared {
		src.shared = true
	}
	t.entries = src.entries
	t.shared = true
	t.gen++
}

// Lookup returns the PTE for va.
//
//camo:hotpath
func (t *Table) Lookup(va uint64) (PTE, bool) {
	pte, ok := t.entries[va>>PageShift]
	return pte, ok
}

// Gen returns the table's invalidation generation (bumped by every
// Map/Unmap/RestoreFrom). Callers caching translation results outside
// the TLB — the CPU's entry memo and traces — snapshot it and treat any
// change as a broadcast TLBI, exactly like a TLB entry does.
func (t *Table) Gen() uint64 { return t.gen }

// MappedPages returns the number of mapped pages.
func (t *Table) MappedPages() int { return len(t.entries) }

// S2Perm is a stage-2 permission override for one IPA page.
type S2Perm struct {
	R, W, X bool
}

// Stage2 is the hypervisor-owned second translation stage. IPA pages
// without an override get full access; overrides only restrict. XOM is the
// override {R: false, W: false, X: true}.
type Stage2 struct {
	overrides map[uint64]S2Perm
	// Enabled gates stage-2 checking; the hypervisor enables it at boot.
	Enabled bool
	// gen is the stage-2 invalidation generation, bumped on every
	// Restrict/Clear so cached translations are re-checked against the
	// current overlay (the stage-2 half of the TLB contract).
	gen uint64
}

// NewStage2 returns a disabled stage-2 with no overrides.
func NewStage2() *Stage2 {
	return &Stage2{overrides: make(map[uint64]S2Perm)}
}

// Restrict installs an override for the IPA page containing pa.
func (s *Stage2) Restrict(pa uint64, p S2Perm) {
	s.overrides[pa>>PageShift] = p
	s.gen++
}

// Clear removes the override for the IPA page containing pa.
func (s *Stage2) Clear(pa uint64) {
	delete(s.overrides, pa>>PageShift)
	s.gen++
}

// Clone returns an independent copy of the stage-2 overlay (generation
// reset: clones are always installed behind a full TLB flush).
func (s *Stage2) Clone() *Stage2 {
	overrides := make(map[uint64]S2Perm, len(s.overrides))
	for pn, p := range s.overrides {
		overrides[pn] = p
	}
	return &Stage2{overrides: overrides, Enabled: s.Enabled}
}

// RestoreFrom replaces the overlay's contents with a copy of src's,
// bumping the generation so cached translations are re-checked.
func (s *Stage2) RestoreFrom(src *Stage2) {
	overrides := make(map[uint64]S2Perm, len(src.overrides))
	for pn, p := range src.overrides {
		overrides[pn] = p
	}
	s.overrides = overrides
	s.Enabled = src.Enabled
	s.gen++
}

// Gen returns the stage-2 invalidation generation (bumped by every
// Restrict/Clear/RestoreFrom); see Table.Gen for the caching contract.
func (s *Stage2) Gen() uint64 { return s.gen }

// Check reports whether the access is allowed by stage 2.
//
//camo:hotpath
func (s *Stage2) Check(pa uint64, kind AccessKind) bool {
	if !s.Enabled {
		return true
	}
	p, ok := s.overrides[pa>>PageShift]
	if !ok {
		return true
	}
	switch kind {
	case Fetch:
		return p.X
	case Load:
		return p.R
	case Store:
		return p.W
	}
	return false
}

// TLB geometry: a small direct-mapped cache of completed translations,
// split I-side/D-side like the Cortex-A53 micro-TLBs the paper measures
// on. 256 entries per side covers the working set of the kernel plus one
// user process with essentially no conflict misses in the model's address
// layout.
const (
	tlbBits = 8
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbEntry caches one successful translation. Besides the translation
// result it snapshots everything the result depended on: the stage-1
// table identity and generation (tables are swapped wholesale on context
// switch and mutated by Map/Unmap), and the stage-2 generation and enable
// state. A hit requires every snapshot to still match, so a stale entry
// can never be served — bumping a generation IS the TLBI.
//
// Load/Store entries for RAM-backed pages additionally cache the host
// pointer to the backing page array (hptr), guarded by the memory
// generation (memgen) at fill time: a TLB hit with a live host pointer
// turns the whole access into a bounds-checked flat-array read/write —
// no bus routing, no page-map lookup, zero allocations. Device-mapped
// and untouched pages fill with hptr == nil and keep the Bus path.
type tlbEntry struct {
	valid bool
	el    int8
	kind  AccessKind
	vpage uint64
	pa    uint64 // page-aligned translation result
	table *Table
	tgen  uint64
	s2gen uint64
	s2en  bool

	hptr   *[PageSize]byte
	memgen uint64
}

// MMU combines the two stage-1 tables, the stage-2 overlay and the address
// layout configuration.
type MMU struct {
	Cfg pac.Config
	// TT0 translates user (bit-55 clear) addresses; TT1 kernel addresses.
	TT0, TT1 *Table
	// S2 is the hypervisor stage.
	S2 *Stage2
	// Enabled gates stage-1 translation; before the MMU is on, addresses
	// are identity-mapped physical.
	Enabled bool
	// NoTLB disables the software TLB (benchmarking the slow path only;
	// set before first use).
	NoTLB bool
	// Mem, when set, enables the host-pointer fast path: successful
	// Load/Store fills also cache the backing RAM page pointer so
	// HostData can serve repeat accesses without touching the
	// bus. The CPU wires this to its own mem.Bus.
	Mem *mem.Bus
	// NoHostPtr disables host-pointer caching only (benchmarking the
	// TLB-hit-plus-Bus path; set before first use).
	NoHostPtr bool

	// itlb serves Fetch, dtlb serves Load/Store.
	itlb, dtlb [tlbSize]tlbEntry

	// Hits and Misses count TLB probes (diagnostics).
	Hits, Misses uint64
	// Rearms counts host-pointer re-arms: a TLB hit whose cached page
	// pointer had gone stale (physical-memory generation bump) and was
	// refreshed in place. S2Walks counts full translation walks — TLB
	// miss, stage-1 lookup plus stage-2 check. Plain fields like
	// Hits/Misses: the MMU is per-CPU and single-goroutine while its
	// CPU runs; the CPU drains them into the obs registry at Run exit.
	Rearms, S2Walks uint64
}

// New returns an MMU with empty tables for the given layout.
func New(cfg pac.Config) *MMU {
	return &MMU{Cfg: cfg, TT0: NewTable(), TT1: NewTable(), S2: NewStage2()}
}

// tlbIndex hashes (VA page, EL, access kind) to a direct-mapped slot.
func tlbIndex(vpage uint64, el int, kind AccessKind) uint64 {
	return (vpage ^ vpage>>tlbBits ^ uint64(el)<<7 ^ uint64(kind)<<6) & tlbMask
}

// InvalidateTLB drops any cached translation for the page containing va,
// on both sides and for every EL/access kind.
func (m *MMU) InvalidateTLB(va uint64) {
	eva := m.stripTag(va)
	vpage := eva >> PageShift
	for set := 0; set < 2; set++ {
		tlb := &m.itlb
		if set == 1 {
			tlb = &m.dtlb
		}
		for i := range tlb {
			if tlb[i].valid && tlb[i].vpage == vpage {
				tlb[i].valid = false
			}
		}
	}
}

// InvalidateTLBAll drops every cached translation (the TLBI ALLE1
// analogue; the hypervisor issues it when it seals the MMU configuration
// at lockdown).
func (m *MMU) InvalidateTLBAll() {
	m.itlb = [tlbSize]tlbEntry{}
	m.dtlb = [tlbSize]tlbEntry{}
}

// stripTag removes tag bits when TBI applies for the side of va, restoring
// the canonical sign extension above bit 55.
func (m *MMU) stripTag(va uint64) uint64 {
	if m.Cfg.IsKernel(va) {
		if m.Cfg.TBIKernel {
			return va | 0xFF00_0000_0000_0000
		}
		return va
	}
	if m.Cfg.TBIUser {
		return va &^ 0xFF00_0000_0000_0000
	}
	return va
}

// KernelSide reports whether va translates through TT1 (a kernel
// address: bit 55 set after tag stripping). The CPU's regime snapshots
// use it to pin which table a memoized translation depended on.
func (m *MMU) KernelSide(va uint64) bool {
	return m.Cfg.IsKernel(m.stripTag(va))
}

// Translate resolves va for the given access at the given EL, returning
// the physical address or a fault. It applies, in order: top-byte-ignore,
// the canonical-address check (which is what catches PAC-poisoned
// pointers), stage-1 lookup and permissions, then the stage-2 overlay.
//
//camo:hotpath
func (m *MMU) Translate(va uint64, kind AccessKind, el int) (uint64, *Fault) {
	if !m.Enabled {
		return va, nil
	}
	eva := m.stripTag(va)
	table := m.TT0
	if m.Cfg.IsKernel(eva) {
		table = m.TT1
	}

	// TLB probe. An entry hits only if the VA page, EL and access kind
	// match and none of the structures the cached result depends on have
	// changed since fill (table swap, Map/Unmap, stage-2 Restrict/Clear or
	// enable flip). Canonicality was checked at fill time for this exact
	// page, so a hit skips it.
	var e *tlbEntry
	if !m.NoTLB {
		vpage := eva >> PageShift
		set := &m.dtlb
		if kind == Fetch {
			set = &m.itlb
		}
		e = &set[tlbIndex(vpage, el, kind)]
		if e.valid && e.vpage == vpage && e.el == int8(el) && e.kind == kind &&
			e.table == table && e.tgen == table.gen &&
			e.s2gen == m.S2.gen && e.s2en == m.S2.Enabled {
			m.Hits++
			// The translation is still valid but the host pointer may
			// have gone stale (Freeze/ResetTo/COW materialization bump
			// memGen without touching the tables). Re-arm it here so the
			// fast path recovers without waiting for an entry eviction.
			if m.Mem != nil && !m.NoHostPtr && kind != Fetch &&
				e.memgen != m.Mem.MemGen() {
				if kind == Load {
					e.hptr = m.Mem.PageForLoad(e.pa)
				} else {
					e.hptr = m.Mem.PageForStore(e.pa)
				}
				e.memgen = m.Mem.MemGen()
				m.Rearms++
			}
			return e.pa | (eva & (PageSize - 1)), nil
		}
		m.Misses++
	}

	if !m.Cfg.IsCanonical(eva) {
		return 0, &Fault{Kind: FaultAddressSize, VA: va, Access: kind, EL: el} //camo:alloc fault path; faults are rare and end the block
	}
	pte, ok := table.Lookup(eva)
	if !ok {
		return 0, &Fault{Kind: FaultTranslation, VA: va, Access: kind, EL: el} //camo:alloc fault path; faults are rare and end the block
	}
	var need Perm
	switch {
	case el == 0 && kind == Fetch:
		need = X0
	case el == 0 && kind == Load:
		need = R0
	case el == 0 && kind == Store:
		need = W0
	case kind == Fetch:
		need = X1
	case kind == Load:
		need = R1
	default:
		need = W1
	}
	if pte.Perm&need != need {
		return 0, &Fault{Kind: FaultPermission, VA: va, Access: kind, EL: el} //camo:alloc fault path; faults are rare and end the block
	}
	pa := pte.PA | (eva & (PageSize - 1))
	m.S2Walks++
	if !m.S2.Check(pa, kind) {
		return 0, &Fault{Kind: FaultStage2, VA: va, Access: kind, EL: el} //camo:alloc fault path; faults are rare and end the block
	}
	if e != nil {
		*e = tlbEntry{
			valid: true, el: int8(el), kind: kind,
			vpage: eva >> PageShift, pa: pte.PA,
			table: table, tgen: table.gen,
			s2gen: m.S2.gen, s2en: m.S2.Enabled,
		}
		// Host-pointer fill for data accesses on RAM-backed pages. The
		// memgen snapshot is taken after PageForStore: materializing a
		// copy-on-write page bumps the generation, and the entry must
		// guard the pointer it actually cached, not its predecessor.
		if m.Mem != nil && !m.NoHostPtr {
			switch kind {
			case Load:
				e.hptr = m.Mem.PageForLoad(pte.PA)
				e.memgen = m.Mem.MemGen()
			case Store:
				e.hptr = m.Mem.PageForStore(pte.PA)
				e.memgen = m.Mem.MemGen()
			}
		}
	}
	return pa, nil
}

// HostData probes the D-side TLB for a host-pointer hit covering a
// Load or Store of size bytes at va. It is the one copy of the §3
// host-pointer validity clause — a single body for both access kinds,
// so a future validity input cannot be added to one path and missed on
// the other: every snapshot of the entry must still match, the cached
// host pointer must exist (RAM-backed page) and still be current
// (memgen), and the access must not straddle the page end.
//
// On a hit it returns the backing page, the in-page offset and the
// physical page number (stores use the latter for the block cache's
// code-invalidation check without re-translating); the caller performs
// the access as a flat-array read/write. On a miss the caller falls
// back to Translate + Bus, which refills (or re-arms) the entry.
func (m *MMU) HostData(va uint64, el int, size uint64, kind AccessKind) (*[PageSize]byte, uint64, uint64, bool) {
	if !m.Enabled || m.NoTLB || m.NoHostPtr {
		return nil, 0, 0, false
	}
	eva := m.stripTag(va)
	off := eva & (PageSize - 1)
	if off > PageSize-size {
		return nil, 0, 0, false
	}
	vpage := eva >> PageShift
	e := &m.dtlb[tlbIndex(vpage, el, kind)]
	if e.hptr == nil || !e.valid || e.vpage != vpage || e.el != int8(el) || e.kind != kind ||
		e.memgen != m.Mem.RAM.Gen() {
		return nil, 0, 0, false
	}
	table := m.TT0
	if m.Cfg.IsKernel(eva) {
		table = m.TT1
	}
	if e.table != table || e.tgen != table.gen || e.s2gen != m.S2.gen || e.s2en != m.S2.Enabled {
		return nil, 0, 0, false
	}
	m.Hits++
	return e.hptr, off, e.pa >> PageShift, true
}
