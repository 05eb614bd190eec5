package cpu

// Cluster is the invalidation state shared by every CPU of one simulated
// machine (the SMP analogue of a cache-coherent interconnect). The
// decoded-block cache, entry memo, traces and host-pointer TLB stay
// strictly per-CPU — only the *generation cells* they validate against
// live here, so a store retired on CPU 0 kills cached blocks, memo slots
// and traces on CPU 1 without any cross-CPU walk: the next validation on
// CPU 1 simply observes the moved cell. This is the software shootdown
// protocol of DESIGN.md §9; the memory-side half (warm host pointers)
// rides the same scheme through mem.Phys's generation.
//
// A machine is driven by one goroutine at a time (DESIGN.md §9), so the
// cells are plain words: the cores run in turn, and a machine changes
// goroutines only through synchronization that already orders every
// access. Hot paths hold cell pointers and never touch the map.
// cellEpoch versions the page→cell *presence* relation: each CPU's
// store-memo caches nil verdicts ("this page never held code"), which go
// stale the moment any CPU decodes from such a page, so the memo is
// re-validated against the epoch before use.
type Cluster struct {
	pageGen map[uint64]*uint64

	// execGen increments whenever any code page is invalidated, on any
	// CPU. Execution loops snapshot it per block so a cross-CPU (or
	// same-block) code patch forces a refetch before stale instructions
	// can retire.
	execGen uint64

	// cellEpoch increments whenever a page first acquires a generation
	// cell; per-CPU store memos are invalid across an epoch change.
	cellEpoch uint64
}

// newCluster returns an empty shared-invalidation domain.
func newCluster() *Cluster {
	return &Cluster{pageGen: make(map[uint64]*uint64)}
}

// cell returns the generation cell for a physical page, creating it (and
// bumping cellEpoch) on first use — the moment the page becomes code.
func (cl *Cluster) cell(page uint64) *uint64 {
	if g := cl.pageGen[page]; g != nil {
		return g
	}
	g := new(uint64)
	*g = 1
	cl.pageGen[page] = g
	cl.cellEpoch++
	return g
}

// lookup returns the page's generation cell, or nil when the page has
// never held decoded code on any CPU.
func (cl *Cluster) lookup(page uint64) *uint64 { return cl.pageGen[page] }

// invalidateAll bumps every cell (killing every cached block on every
// CPU of the cluster) and execGen. Cells are kept, not replaced, so
// pointers held by other CPUs' blocks and memos stay meaningful.
func (cl *Cluster) invalidateAll() {
	for _, g := range cl.pageGen {
		*g++
	}
	cl.execGen++
}
