package mem

// Persistence hooks for the content-addressed snapshot store: the frozen
// copy-on-write base and the captured device states are the only
// mem-owned pieces of a kernel snapshot, and their internals are
// deliberately unexported. The store serializes through the explicit
// export/import surface below instead of reaching into them, keeping the
// copy-on-write invariants (base pages are never written through) intact
// for loaded snapshots exactly as for captured ones.

import "sort"

// ForEachPage calls f for every page of the frozen store in ascending
// page-number order — the deterministic iteration the store's
// content-addressed manifests require. The page arrays are the live
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

// NetDevWire is the exported wire form of a captured NetDev snapshot.
type NetDevWire struct {
	RX      [][]byte
	RXOff   int
	RXCount uint64
	TXBytes uint64
}

// Wire exports the captured state. Packet payloads are shared with the
// snapshot; callers serializing them must copy, not alias.
func (st NetDevState) Wire() NetDevWire {
	return NetDevWire{RX: st.rx, RXOff: st.rxOff, RXCount: st.rxCount, TXBytes: st.txBytes}
}

// State imports a wire form back into a restorable device snapshot.
func (w NetDevWire) State() NetDevState {
	return NetDevState{rx: w.RX, rxOff: w.RXOff, rxCount: w.RXCount, txBytes: w.TXBytes}
}

// BlockDevWire is the exported wire form of a captured BlockDev
// snapshot, with sectors in ascending order for deterministic encoding.
type BlockDevWire struct {
	Sectors []BlockSectorWire
	Cur     uint64
	Off     int
	Reads   uint64
	Writes  uint64
}

// BlockSectorWire is one disk sector.
type BlockSectorWire struct {
	N    uint64
	Data [SectorSize]byte
}

// Wire exports the captured state (sector contents copied by value).
func (st BlockDevState) Wire() BlockDevWire {
	w := BlockDevWire{Cur: st.cur, Off: st.off, Reads: st.reads, Writes: st.writes}
	ns := make([]uint64, 0, len(st.sectors))
	for n := range st.sectors {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, n := range ns {
		w.Sectors = append(w.Sectors, BlockSectorWire{N: n, Data: *st.sectors[n]})
	}
	return w
}

// State imports a wire form back into a restorable device snapshot.
func (w BlockDevWire) State() BlockDevState {
	sectors := make(map[uint64]*[SectorSize]byte, len(w.Sectors))
	for i := range w.Sectors {
		cp := w.Sectors[i].Data
		sectors[w.Sectors[i].N] = &cp
	}
	return BlockDevState{sectors: sectors, cur: w.Cur, off: w.Off, reads: w.Reads, writes: w.Writes}
}
