package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/client"
	"camouflage/internal/cpu"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
)

// errLeaseLimit rejects new leases when the table is full (503).
var errLeaseLimit = errors.New("server: lease limit reached")

// lease is one checked-out warm machine. All guest-touching operations
// (run, reset, state readback, release) serialize on mu — a machine is
// single-core; concurrent steps would interleave nonsensically.
// released is written under mu when the machine goes back to the pool;
// every operation that looked the lease up before that must re-check it
// after locking, or it would step a machine another client may already
// hold. Every operation is short: no route loads a program into a
// leased machine, so a /run ends after a few dozen instructions
// (TestLeaseRunEndsAtOnce, DESIGN.md §8), and whoever waits on mu —
// the idle reaper, Drain — waits briefly.
type lease struct {
	id string
	m  *snapshot.Machine

	mu       sync.Mutex
	released bool
	lastUsed atomic.Int64 // unix nanos, for the idle reaper
}

func (l *lease) touch() { l.lastUsed.Store(time.Now().UnixNano()) }

// release hands the machine back to the pool once the operation in
// flight, if any, has finished.
func (l *lease) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.Release()
	l.released = true
}

// leaseTable tracks active leases and reclaims abandoned ones: a lease
// idle past maxIdle is released back to the warm pool (its state is
// discarded — leases are a loan, not storage). Reaping piggybacks on
// lease operations and /v1/stats reads; there is no background
// goroutine to leak.
type leaseTable struct {
	mu     sync.Mutex
	leases map[string]*lease
	next   uint64

	maxLeases int
	maxIdle   time.Duration
}

func newLeaseTable(maxLeases int, maxIdle time.Duration) *leaseTable {
	return &leaseTable{
		leases:    make(map[string]*lease),
		maxLeases: maxLeases,
		maxIdle:   maxIdle,
	}
}

// add registers a freshly acquired machine and returns its lease.
func (t *leaseTable) add(m *snapshot.Machine) (*lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.leases) >= t.maxLeases {
		return nil, errLeaseLimit
	}
	t.next++
	l := &lease{id: fmt.Sprintf("m-%d", t.next), m: m}
	l.touch()
	t.leases[l.id] = l
	obs.Add(obs.CLeaseIssued, 1)
	return l, nil
}

// get looks a lease up without removing it.
func (t *leaseTable) get(id string) (*lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	return l, ok
}

// take removes a lease from the table (the release path); a second
// release of the same id misses and maps to 404.
func (t *leaseTable) take(id string) (*lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	if ok {
		delete(t.leases, id)
	}
	return l, ok
}

// reap releases leases idle past maxIdle back to the pool.
func (t *leaseTable) reap() {
	if t.maxIdle <= 0 {
		return
	}
	cutoff := time.Now().Add(-t.maxIdle).UnixNano()
	t.mu.Lock()
	var stale []*lease
	for id, l := range t.leases {
		if l.lastUsed.Load() < cutoff {
			delete(t.leases, id)
			stale = append(stale, l)
		}
	}
	t.mu.Unlock()
	for _, l := range stale {
		l.release()
		obs.Add(obs.CLeaseExpired, 1)
	}
}

// releaseAll hands every active lease back (graceful drain).
func (t *leaseTable) releaseAll() {
	t.mu.Lock()
	all := t.leases
	t.leases = make(map[string]*lease)
	t.mu.Unlock()
	for _, l := range all {
		l.release()
		obs.Add(obs.CLeaseReleased, 1)
	}
}

// stats snapshots lease lifecycle counters for /v1/stats: Active from
// the table, the event counts as process totals from the obs registry.
func (t *leaseTable) stats() client.LeaseStats {
	t.mu.Lock()
	active := len(t.leases)
	t.mu.Unlock()
	return client.LeaseStats{
		Active:   active,
		Issued:   obs.CounterTotal(obs.CLeaseIssued),
		Released: obs.CounterTotal(obs.CLeaseReleased),
		Expired:  obs.CounterTotal(obs.CLeaseExpired),
	}
}

// stopName maps a cpu stop to the wire string.
func stopName(k cpu.StopKind) string {
	switch k {
	case cpu.StopHLT:
		return "hlt"
	case cpu.StopError:
		return "error"
	}
	return "limit"
}
