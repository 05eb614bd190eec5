package server

import (
	"context"
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
// hold.
type lease struct {
	id string
	m  *snapshot.Machine

	mu       sync.Mutex
	released bool
	lastUsed atomic.Int64 // unix nanos, for the idle reaper

	// opStart is non-zero while an operation holds mu (unix nanos); the
	// run watchdog force-expires leases whose operation outlives the
	// budget. watchdogged tells the operation, when it finally finishes,
	// to abandon the machine instead of keeping the lease live — the
	// lease is already gone from the table.
	opStart     atomic.Int64
	watchdogged atomic.Bool
}

func (l *lease) touch() { l.lastUsed.Store(time.Now().UnixNano()) }

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
	// runBudget is the watchdog's per-operation wall budget (0 disables):
	// a lease whose single operation runs past it is force-expired.
	runBudget time.Duration
}

func newLeaseTable(maxLeases int, maxIdle, runBudget time.Duration) *leaseTable {
	return &leaseTable{
		leases:    make(map[string]*lease),
		maxLeases: maxLeases,
		maxIdle:   maxIdle,
		runBudget: runBudget,
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

// reap releases leases idle past maxIdle back to the pool, after the
// watchdog sweep has cleared any over-budget operations (a wedged op
// holds its lease's mu; the idle reaper must not block behind it).
func (t *leaseTable) reap() {
	t.watchdog()
	if t.maxIdle <= 0 {
		return
	}
	cutoff := time.Now().Add(-t.maxIdle).UnixNano()
	t.mu.Lock()
	var stale []*lease
	for id, l := range t.leases {
		if l.lastUsed.Load() < cutoff && l.opStart.Load() == 0 {
			delete(t.leases, id)
			stale = append(stale, l)
		}
	}
	t.mu.Unlock()
	for _, l := range stale {
		l.mu.Lock() // wait out any in-flight operation
		l.m.Release()
		l.released = true
		l.mu.Unlock()
		obs.Add(obs.CLeaseExpired, 1)
	}
}

// watchdog force-expires leases whose in-flight operation has run past
// the budget: the lease leaves the table immediately (the id answers
// 404 from here on) and the operation, when it eventually returns,
// abandons its machine rather than keeping the lease. It never takes a
// lease's mu — the whole point is that the operation holding it is
// wedged.
func (t *leaseTable) watchdog() {
	if t.runBudget <= 0 {
		return
	}
	cutoff := time.Now().Add(-t.runBudget).UnixNano()
	t.mu.Lock()
	for id, l := range t.leases {
		if start := l.opStart.Load(); start != 0 && start < cutoff {
			delete(t.leases, id)
			l.watchdogged.Store(true)
			obs.Add(obs.CWatchdogCancel, 1)
			obs.Add(obs.CLeaseForceExpired, 1)
		}
	}
	t.mu.Unlock()
}

// releaseAll hands every active lease back (graceful drain), bounded
// by ctx. The pre-fix behaviour blocked unconditionally on each lease's
// operation lock: one wedged /run step (up to 500M instructions) made
// SIGTERM hang past its drain budget, so leases held at shutdown were
// effectively never released and the pool's idle/evicted accounting
// never saw their machines. Now a lease whose in-flight operation
// outlives ctx is *force-expired*: removed from the table immediately
// and counted in ForceExpired; when its operation eventually finishes,
// the machine is abandoned rather than parked (a machine must never
// join the warm pool mid-run — and the pool has already been evicted by
// then). Pinned by TestDrainForceExpiresWedgedLease.
func (t *leaseTable) releaseAll(ctx context.Context) {
	t.mu.Lock()
	all := make([]*lease, 0, len(t.leases))
	for id, l := range t.leases {
		delete(t.leases, id)
		all = append(all, l)
	}
	t.mu.Unlock()
	for _, l := range all {
		// Fast path: an idle lease (no operation in flight) releases
		// synchronously even when ctx has already expired — only leases
		// whose operation lock is actually held get the bounded wait, so
		// a drain whose budget was eaten by the in-flight-job phase does
		// not mislabel healthy leases as wedged.
		if l.mu.TryLock() {
			l.m.Release()
			l.released = true
			l.mu.Unlock()
			obs.Add(obs.CLeaseReleased, 1)
			continue
		}
		abandon := new(atomic.Bool)
		done := make(chan struct{})
		go func(l *lease) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.released = true
			if !abandon.Load() {
				l.m.Release()
			}
			close(done)
		}(l)
		select {
		case <-done:
			obs.Add(obs.CLeaseReleased, 1)
		case <-ctx.Done():
			abandon.Store(true)
			obs.Add(obs.CLeaseForceExpired, 1)
		}
	}
}

// stats snapshots lease lifecycle counters for /v1/stats: Active from
// the table, the event counts as process totals from the obs registry.
func (t *leaseTable) stats() client.LeaseStats {
	t.mu.Lock()
	active := len(t.leases)
	t.mu.Unlock()
	return client.LeaseStats{
		Active:       active,
		Issued:       obs.CounterTotal(obs.CLeaseIssued),
		Released:     obs.CounterTotal(obs.CLeaseReleased),
		Expired:      obs.CounterTotal(obs.CLeaseExpired),
		ForceExpired: obs.CounterTotal(obs.CLeaseForceExpired),
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
