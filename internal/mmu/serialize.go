package mmu

// Persistence hooks for the persistent snapshot store: stage-1
// tables and the stage-2 overlay keep their maps unexported, so snapshot
// serialization goes through the deterministic export/import surface
// below (ascending page-number order, the store's manifest requirement).

import "sort"

// TableEntryWire is one stage-1 translation entry in wire form.
type TableEntryWire struct {
	PN  uint64
	PTE PTE
}

// Export returns the table's entries in ascending page-number order.
func (t *Table) Export() []TableEntryWire {
	out := make([]TableEntryWire, 0, len(t.entries))
	for pn, pte := range t.entries {
		out = append(out, TableEntryWire{PN: pn, PTE: pte})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PN < out[j].PN })
	return out
}

// NewTableFromEntries rebuilds a stage-1 table from exported entries.
// It comes back marked shared, like a table CaptureState cloned, so
// concurrent Clones of it (forks of a store-loaded snapshot) only read
// it.
func NewTableFromEntries(entries []TableEntryWire) *Table {
	t := NewTable()
	for _, e := range entries {
		t.entries[e.PN] = e.PTE
	}
	t.shared = true
	return t
}

// S2EntryWire is one stage-2 override in wire form.
type S2EntryWire struct {
	PN   uint64
	Perm S2Perm
}

// Export returns the overlay's overrides in ascending page-number order
// plus the enable latch.
func (s *Stage2) Export() (entries []S2EntryWire, enabled bool) {
	entries = make([]S2EntryWire, 0, len(s.overrides))
	for pn, p := range s.overrides {
		entries = append(entries, S2EntryWire{PN: pn, Perm: p})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].PN < entries[j].PN })
	return entries, s.Enabled
}

// NewStage2FromEntries rebuilds a stage-2 overlay from exported entries.
func NewStage2FromEntries(entries []S2EntryWire, enabled bool) *Stage2 {
	s := NewStage2()
	for _, e := range entries {
		s.overrides[e.PN] = e.Perm
	}
	s.Enabled = enabled
	return s
}
