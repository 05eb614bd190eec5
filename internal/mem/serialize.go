package mem

// Persistence hooks for the persistent snapshot store: the frozen
// copy-on-write base is the only mem-owned piece of a kernel snapshot
// that a snapshot file holds, and its internals are deliberately
// unexported. The store serializes through the explicit export/import
// surface below instead of reaching into them, keeping the
// copy-on-write invariants (base pages are never written through) intact
// for loaded snapshots exactly as for captured ones. A booted machine's
// devices are idle, so the file holds no device state; Idle tells the
// state codec so.

import "sort"

// ForEachPage calls f for every page of the frozen store in ascending
// page-number order — the deterministic iteration the store's
// content digests require. The page arrays are the live
// copy-on-write base: callers must treat them as read-only.
func (f *Frozen) ForEachPage(fn func(pn uint64, pg *[PageSize]byte)) {
	pns := make([]uint64, 0, len(f.pages))
	for pn := range f.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		fn(pn, f.pages[pn])
	}
}

// NewFrozenFromPages builds a frozen store around the given pages. The
// map and its page arrays become the shared copy-on-write base of every
// Phys forked from the result: the caller must hand over ownership and
// never write them again (the snapshot-load path hands over pages of
// the verified snapshot file it has just read).
func NewFrozenFromPages(pages map[uint64]*[PageSize]byte) *Frozen {
	if pages == nil {
		pages = make(map[uint64]*[PageSize]byte)
	}
	return &Frozen{pages: pages}
}

// Idle reports whether the captured NIC holds nothing a booted
// machine lacks: no queued packet and no traffic counted. The state
// codec refuses a snapshot whose NIC is not idle.
func (st NetDevState) Idle() bool {
	return len(st.rx) == 0 && st.rxOff == 0 && st.rxCount == 0 && st.txBytes == 0
}

// Idle reports whether the captured disk holds nothing a booted machine
// lacks: no sector, no position and no transfer counted. The state
// codec refuses a snapshot whose disk is not idle.
func (st BlockDevState) Idle() bool {
	return len(st.sectors) == 0 && st.cur == 0 && st.off == 0 && st.reads == 0 && st.writes == 0
}
