package cpu

import (
	"sync"
	"sync/atomic"
)

// Cluster is the invalidation state shared by every CPU of one simulated
// machine (the SMP analogue of a cache-coherent interconnect). The
// decoded-block cache, chain edges and host-pointer TLB stay strictly
// per-CPU — only the *generation cells* they validate against live here,
// as atomically published values, so a store retired on CPU 0 severs
// chains and kills cached blocks on CPU 1 without any cross-CPU walk:
// the next validation on CPU 1 simply observes the moved cell. This is
// the software shootdown protocol of DESIGN.md §9; the memory-side half
// (warm host pointers) rides the same scheme through mem.Phys's atomic
// generation.
//
// The map itself is mutated only on cold paths (a page holding code for
// the first time, a full InvalidateDecode) and is guarded by mu; hot
// paths hold cell pointers and never touch the map. cellEpoch versions
// the page→cell *presence* relation: each CPU's store-memo caches nil
// verdicts ("this page never held code"), which go stale the moment any
// CPU decodes from such a page, so the memo is re-validated against the
// epoch before use.
type Cluster struct {
	mu      sync.RWMutex
	pageGen map[uint64]*atomic.Uint64

	// execGen increments whenever any code page is invalidated, on any
	// CPU. Execution loops snapshot it per block so a cross-CPU (or
	// same-block) code patch forces a refetch before stale instructions
	// can retire.
	execGen atomic.Uint64

	// cellEpoch increments whenever a page first acquires a generation
	// cell; per-CPU store memos are invalid across an epoch change.
	cellEpoch atomic.Uint64
}

// newCluster returns an empty shared-invalidation domain.
func newCluster() *Cluster {
	return &Cluster{pageGen: make(map[uint64]*atomic.Uint64)}
}

// cell returns the generation cell for a physical page, creating it (and
// bumping cellEpoch) on first use — the moment the page becomes code.
func (cl *Cluster) cell(page uint64) *atomic.Uint64 {
	cl.mu.RLock()
	g := cl.pageGen[page]
	cl.mu.RUnlock()
	if g != nil {
		return g
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if g = cl.pageGen[page]; g != nil {
		return g
	}
	g = new(atomic.Uint64)
	g.Store(1)
	cl.pageGen[page] = g
	cl.cellEpoch.Add(1)
	return g
}

// lookup returns the page's generation cell, or nil when the page has
// never held decoded code on any CPU.
func (cl *Cluster) lookup(page uint64) *atomic.Uint64 {
	cl.mu.RLock()
	g := cl.pageGen[page]
	cl.mu.RUnlock()
	return g
}

// invalidateAll bumps every cell (killing every cached block on every
// CPU of the cluster) and execGen. Cells are kept, not replaced, so
// pointers held by other CPUs' blocks and memos stay meaningful.
func (cl *Cluster) invalidateAll() {
	cl.mu.Lock()
	//camo:nondet atomic generation bumps commute; visit order does not affect the final counters
	for _, g := range cl.pageGen {
		g.Add(1)
	}
	cl.mu.Unlock()
	cl.execGen.Add(1)
}

// ExecGen exposes the shared execution generation (tests).
func (cl *Cluster) ExecGen() uint64 { return cl.execGen.Load() }
