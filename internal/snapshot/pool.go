package snapshot

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/kernel"
	"camouflage/internal/obs"
)

// Machine is a pooled machine: a kernel plus the snapshot it descends
// from. Run it freely; hand it back with Release (which resets it) or
// abandon it (forks are independent — the pool does not track them).
type Machine struct {
	// K is the kernel, positioned exactly at the snapshot point.
	K *kernel.Kernel
	// Snap is the snapshot the machine descends from (for nested
	// snapshots or manual resets mid-use).
	Snap *Snapshot

	key  Key
	pool *Pool
}

// Key returns the pool key the machine was acquired under (zero for a
// released handle). The service daemon reports it per lease.
func (m *Machine) Key() Key { return m.key }

// Release resets the machine to its snapshot and parks it warm for the
// next Acquire of the same key. When the key's idle list is already
// full, the machine is dropped *without* paying the reset; a machine
// whose reset fails is dropped too. Drops are counted in Stats.
func (m *Machine) Release() {
	p := m.pool
	if p == nil {
		return
	}
	// Consume the handle: a second Release is a no-op instead of parking
	// the same kernel twice (Acquire re-arms the pool pointer when it
	// hands the machine out again).
	m.pool = nil
	p.release(m)
}

func (p *Pool) release(m *Machine) {
	e := p.entry(m.key)
	e.mu.Lock()
	full := len(e.idle) >= maxIdlePerKey
	e.mu.Unlock()
	if full {
		obs.Add(obs.CPoolDrop, 1)
		return
	}
	if err := m.Snap.Reset(m.K); err != nil {
		// Only a programming error reaches here (machine wired to a
		// snapshot of a different built image); surface it in Stats
		// rather than degrade the pool invisibly.
		obs.Add(obs.CPoolDrop, 1)
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.idle) >= maxIdlePerKey {
		obs.Add(obs.CPoolDrop, 1)
		return
	}
	e.idle = append(e.idle, m)
}

// Pool hands out warm pre-booted machines keyed by build options. The
// first Acquire of a key pays one boot and snapshots it; every Acquire
// then reuses a reset idle machine or forks a new one in O(1). All
// methods are safe for concurrent use; concurrent Acquires of a cold key
// block until its one boot (or store load) completes.
//
// With Store set, a cold key consults the persistent snapshot store
// before booting: a verified hit arms the key in milliseconds with zero
// boots, and a miss boots once then persists the capture asynchronously
// so the *next* process starts warm. A nil Store keeps the pool purely
// in-memory; nothing else changes.
type Pool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry // by Key.Digest

	// Store, when non-nil, backs cold keys with persisted snapshots.
	// Set it before first use; it must not change while the pool is
	// live.
	Store Store

	persistWG sync.WaitGroup
}

type poolEntry struct {
	key Key

	// armed flips once e.snap is published; the Acquire fast path is one
	// atomic load. armMu serializes arming attempts (store load, boot
	// retries) and is held across a boot, so the idle list and the
	// readers of Stats and Entries take mu instead.
	armed atomic.Bool
	armMu sync.Mutex
	snap  *Snapshot

	mu   sync.Mutex
	idle []*Machine
}

// maxIdlePerKey bounds parked machines per key (further Releases drop
// the machine; its copy-on-write base stays shared).
const maxIdlePerKey = 16

// NewPool returns an empty in-memory pool.
func NewPool() *Pool {
	return &Pool{entries: make(map[string]*poolEntry)}
}

// Shared is the process-wide pool used by the experiment suites, the
// benchmarks and core.Replicate.
var Shared = NewPool()

func (p *Pool) entry(key Key) *poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[key.Digest]
	if e == nil {
		e = &poolEntry{key: key}
		p.entries[key.Digest] = e
	}
	return e
}

// The boot retry loop: tries per arming (boot + retries) and the
// capped exponential backoff between them.
const (
	bootAttempts   = 3
	bootBackoff    = 25 * time.Millisecond
	bootBackoffMax = time.Second
)

// ensureBooted arms the entry: a store hit serves the persisted
// snapshot with zero boots; otherwise the boot runs — retried with
// capped exponential backoff — the booted kernel becomes the snapshot
// source, and the capture is persisted in the background. The booted
// kernel itself is not parked: many keys are armed only to be forked
// through SnapshotFor, and a parked origin would hold its CPU, MMU and
// device state for as long as the pool lives. The first Acquire forks
// like any other.
//
// Unlike the sync.Once arming this replaces, a failed arming never
// poisons the key: the next Acquire tries again. Boots are
// deterministic functions of validated options, so a key whose every
// boot fails fails each request with its boot error and touches no
// other key.
//
// armMu makes arming the one place store loads coalesce: concurrent
// Acquires of a cold key wait here for one Store.Load, and every later
// fork comes from e.snap, so the store needs no memo of its own.
func (p *Pool) ensureBooted(e *poolEntry, key Key, boot func() (*kernel.Kernel, error)) error {
	if e.armed.Load() {
		return nil
	}
	e.armMu.Lock()
	defer e.armMu.Unlock()
	if e.armed.Load() {
		return nil
	}
	if p.Store != nil {
		snap, _, err := p.Store.Load(key)
		switch {
		case err == nil:
			e.mu.Lock()
			e.snap = snap
			e.mu.Unlock()
			e.armed.Store(true)
			return nil
		case !errors.Is(err, ErrNotFound):
			// A corrupt or unreadable persisted snapshot must never
			// take the key down: the store already counted the
			// failure; fall through to a fresh boot, whose persist
			// rewrites the bad file.
		}
	}
	k, err := bootWithRetry(boot)
	if err != nil {
		return err
	}
	obs.Add(obs.CPoolBoot, 1)
	// e.snap is published under e.mu as well as via e.armed: callers
	// read it after the armed.Load fast path (release/acquire ordered),
	// Stats reads it under e.mu only.
	e.mu.Lock()
	e.snap = Take(k)
	e.mu.Unlock()
	if p.Store != nil {
		snap := e.snap
		p.persistWG.Add(1)
		//camo:nondet async persist races only against the host store; guest state is already captured
		go func() {
			defer p.persistWG.Done()
			// A failed persist leaves the pool warm; the next process
			// boots the key again. The store counts the failure.
			_, _ = p.Store.Save(key, snap)
		}()
	}
	e.armed.Store(true)
	return nil
}

// bootWithRetry runs the boot closure up to bootAttempts times with
// capped exponential backoff between tries, returning the last error.
// Transient faults (an injected boot failure, a racing resource) heal
// here; deterministic ones (a §4.1 verify refusal) fail every attempt.
func bootWithRetry(boot func() (*kernel.Kernel, error)) (*kernel.Kernel, error) {
	backoff := bootBackoff
	var lastErr error
	for attempt := 0; attempt < bootAttempts; attempt++ {
		if attempt > 0 {
			obs.Add(obs.CBootRetry, 1)
			time.Sleep(backoff)
			backoff = min(2*backoff, bootBackoffMax)
		}
		k, err := boot()
		if err == nil {
			return k, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// WaitPersist blocks until every background snapshot persist issued so
// far has finished (graceful drain and test synchronization).
func (p *Pool) WaitPersist() { p.persistWG.Wait() }

// Acquire returns a machine positioned at the post-boot snapshot for
// key. The boot closure runs at most once per key, and not at all when
// the store already holds the key's snapshot.
func (p *Pool) Acquire(key Key, boot func() (*kernel.Kernel, error)) (*Machine, error) {
	e := p.entry(key)
	if err := p.ensureBooted(e, key, boot); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		m := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		obs.Add(obs.CPoolHit, 1)
		// Hand out a fresh handle around the parked kernel: the previous
		// owner's released handle stays permanently inert, so a stale
		// double-Release can never reset a machine a new owner is using.
		return &Machine{K: m.K, Snap: m.Snap, key: m.key, pool: p}, nil
	}
	e.mu.Unlock()
	k, err := e.snap.Fork()
	if err != nil {
		return nil, err
	}
	return &Machine{K: k, Snap: e.snap, key: key, pool: p}, nil
}

// SnapshotFor returns the post-boot snapshot for key, booting it on
// first use (for callers that fork directly, e.g. core.Replicate). No
// machine is acquired: a warm key answers from the cached snapshot.
func (p *Pool) SnapshotFor(key Key, boot func() (*kernel.Kernel, error)) (*Snapshot, error) {
	e := p.entry(key)
	if err := p.ensureBooted(e, key, boot); err != nil {
		return nil, err
	}
	return e.snap, nil
}

// EntryInfo describes one resident pool key for inspection APIs.
type EntryInfo struct {
	Key  Key
	Idle int
}

// Entries lists the pool's armed keys (booted or store-loaded).
func (p *Pool) Entries() []EntryInfo {
	var out []EntryInfo
	for _, e := range p.snapshotEntries() {
		e.mu.Lock()
		if e.snap != nil {
			out = append(out, EntryInfo{Key: e.key, Idle: len(e.idle)})
		}
		e.mu.Unlock()
	}
	return out
}

func (p *Pool) snapshotEntries() []*poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries := make([]*poolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	return entries
}

// EvictIdle empties every key's idle list, returning how many machines
// were let go. Evictions are counted separately from Release-time drops
// so Stats can distinguish deliberate shrinking from parking pressure.
// The copy-on-write bases stay cached: the next Acquire of an evicted
// key forks, it does not re-boot.
func (p *Pool) EvictIdle() int {
	n := 0
	for _, e := range p.snapshotEntries() {
		e.mu.Lock()
		n += len(e.idle)
		clear(e.idle)
		e.idle = e.idle[:0]
		e.mu.Unlock()
	}
	if n > 0 {
		obs.Add(obs.CPoolEvict, uint64(n))
	}
	return n
}

// Stats is a point-in-time view of pool effectiveness: every reuse,
// fork or store load is a full build+verify+boot avoided. A nonzero
// Dropped under low parallelism signals misuse (reset failures); under
// high parallelism it just means Releases exceeded maxIdlePerKey.
// Evicted counts idle machines deliberately let go through EvictIdle.
// StoreLoads counts verified loads from the persistent store (each
// arms a key with zero boots); StorePersists counts snapshots written
// to it.
//
// Keys and Idle describe this pool. The other fields are process
// totals, read from the obs registry that counts each event once
// (DESIGN.md §11); in a process that runs one pool, as the daemon does,
// they are that pool's counts. Forks counts every copy-on-write fork
// the process made, the pool's and those of campaign strikes alike.
type Stats struct {
	Keys          int    `json:"keys"`
	Idle          int    `json:"idle"`
	Boots         uint64 `json:"boots"`
	Forks         uint64 `json:"forks"`
	Reuses        uint64 `json:"reuses"`
	Dropped       uint64 `json:"dropped"`
	Evicted       uint64 `json:"evicted"`
	StoreLoads    uint64 `json:"store_loads"`
	StorePersists uint64 `json:"store_persists"`
	// BootRetries counts boot attempts retried (DESIGN.md §13).
	BootRetries uint64 `json:"boot_retries,omitempty"`
}

// Stats returns current counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Boots:         obs.CounterTotal(obs.CPoolBoot),
		Forks:         obs.CounterTotal(obs.CPoolMiss),
		Reuses:        obs.CounterTotal(obs.CPoolHit),
		Dropped:       obs.CounterTotal(obs.CPoolDrop),
		Evicted:       obs.CounterTotal(obs.CPoolEvict),
		StoreLoads:    obs.CounterTotal(obs.CStoreHit),
		StorePersists: obs.CounterTotal(obs.CStoreSave),
		BootRetries:   obs.CounterTotal(obs.CBootRetry),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st.Keys = len(p.entries)
	//camo:nondet stat sums commute; per-entry locks only guard concurrent mutation
	for _, e := range p.entries {
		e.mu.Lock()
		st.Idle += len(e.idle)
		e.mu.Unlock()
	}
	return st
}
