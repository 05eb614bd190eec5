package snapshot

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/fault"
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
	// fresh marks the just-booted origin machine: its first Acquire is
	// part of the boot, not a boot avoided, so it is not counted as a
	// reuse.
	fresh bool
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
	full := len(e.idle) >= p.MaxIdlePerKey
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
	if len(e.idle) >= p.MaxIdlePerKey {
		obs.Add(obs.CPoolDrop, 1)
		return
	}
	e.idle = append(e.idle, m)
}

// Pool hands out warm pre-booted machines keyed by build options. The
// first Acquire of a key pays one boot and snapshots it; later Acquires
// reuse a reset idle machine or fork a new one in O(1). All methods are
// safe for concurrent use; concurrent Acquires of a cold key block until
// its one boot (or store load) completes.
//
// With Store set, a cold key consults the persistent snapshot store
// before booting: a verified hit arms the key in milliseconds with zero
// boots, and a miss boots once then persists the capture asynchronously
// so the *next* process starts warm. A nil Store keeps the pool purely
// in-memory; nothing else changes.
type Pool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry // by Key.Digest

	// MaxIdlePerKey bounds parked machines per key (further Releases
	// drop the machine; its copy-on-write base stays shared).
	MaxIdlePerKey int

	// Store, when non-nil, backs cold keys with persisted snapshots.
	// Set it before first use; it must not change while the pool is
	// live.
	Store Store

	// BootAttempts bounds tries per arming (boot + retries); <=0 means
	// the default of 3. Retries back off exponentially from 25ms,
	// capped at 1s.
	BootAttempts int

	// BreakerThreshold consecutive failed armings open the key's
	// circuit breaker (<=0: default 5): Acquire fast-fails with
	// *BreakerOpenError instead of paying doomed boots, until
	// BreakerReset (default 30s) elapses and one half-open probe boot
	// is allowed through.
	BreakerThreshold int
	BreakerReset     time.Duration

	persistWG sync.WaitGroup
}

type poolEntry struct {
	key Key

	// armed flips once e.snap is published; the Acquire fast path is one
	// atomic load. armMu serializes arming attempts (store load, boot
	// retries, half-open breaker probes) without blocking readers of the
	// breaker state, which lives under mu.
	armed atomic.Bool
	armMu sync.Mutex
	snap  *Snapshot

	mu   sync.Mutex
	idle []*Machine
	// fails counts consecutive failed armings; at the breaker threshold
	// the key opens until openUntil.
	fails     int
	openUntil time.Time
}

// NewPool returns an empty in-memory pool.
func NewPool() *Pool {
	return &Pool{entries: make(map[string]*poolEntry), MaxIdlePerKey: 16}
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

// defaults for the boot retry loop and the breaker, and the retry
// loop's fixed backoff.
const (
	defaultBootAttempts     = 3
	bootBackoff             = 25 * time.Millisecond
	bootBackoffMax          = time.Second
	defaultBreakerThreshold = 5
	defaultBreakerReset     = 30 * time.Second
)

func (p *Pool) bootAttempts() int {
	if p.BootAttempts > 0 {
		return p.BootAttempts
	}
	return defaultBootAttempts
}

func (p *Pool) breakerThreshold() int {
	if p.BreakerThreshold > 0 {
		return p.BreakerThreshold
	}
	return defaultBreakerThreshold
}

func (p *Pool) breakerReset() time.Duration {
	if p.BreakerReset > 0 {
		return p.BreakerReset
	}
	return defaultBreakerReset
}

// BreakerOpenError fast-fails an Acquire whose key's circuit breaker is
// open: the last Failures armings in a row failed, and the next probe
// boot is RetryAfter away. The daemon maps it to 503 + Retry-After.
type BreakerOpenError struct {
	Key        Key
	Failures   int
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("snapshot: breaker open for key %.12s after %d consecutive boot failures (retry in %s)",
		e.Key.Digest, e.Failures, e.RetryAfter.Round(time.Millisecond))
}

// breakerCheck gates an arming attempt: nil means proceed (closed, or
// half-open probe), otherwise the typed fast-fail error.
func (p *Pool) breakerCheck(e *poolEntry, key Key) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fails < p.breakerThreshold() {
		return nil
	}
	//camo:nondet breaker timing is host-side resilience policy, never guest-visible state
	if wait := time.Until(e.openUntil); wait > 0 {
		obs.Add(obs.CBreakerFastFail, 1)
		return &BreakerOpenError{Key: key, Failures: e.fails, RetryAfter: wait}
	}
	// Past the reset timer: half-open. armMu already serializes, so
	// exactly one probe boot runs; its outcome re-opens or closes.
	return nil
}

// breakerFail records a failed arming, (re-)opening the breaker at the
// threshold.
func (p *Pool) breakerFail(e *poolEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fails++
	if e.fails >= p.breakerThreshold() {
		e.openUntil = time.Now().Add(p.breakerReset()) //camo:nondet breaker reset deadline is host-side resilience policy
		obs.Add(obs.CBreakerTrip, 1)
	}
}

// breakerOK closes the breaker after a successful arming.
func (p *Pool) breakerOK(e *poolEntry) {
	e.mu.Lock()
	e.fails = 0
	e.openUntil = time.Time{}
	e.mu.Unlock()
}

// ensureBooted arms the entry: a store hit serves the persisted
// snapshot with zero boots; otherwise the boot runs — retried with
// capped exponential backoff — the booted kernel becomes both the
// snapshot source and (since after Take it is indistinguishable from a
// fork) the first warm machine, and the capture is persisted in the
// background.
//
// Unlike the sync.Once arming this replaces, a failed arming never
// poisons the key: the next Acquire tries again, subject to the per-key
// circuit breaker — after BreakerThreshold consecutive failures the key
// fast-fails with *BreakerOpenError until BreakerReset allows a
// half-open probe.
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
	if err := p.breakerCheck(e, key); err != nil {
		return err
	}
	if p.Store != nil {
		snap, _, err := p.Store.Load(key)
		switch {
		case err == nil:
			e.mu.Lock()
			e.snap = snap
			e.mu.Unlock()
			p.breakerOK(e)
			e.armed.Store(true)
			return nil
		case !errors.Is(err, ErrNotFound):
			// A corrupt, unreadable or quarantined persisted snapshot
			// must never take the key down: the store already counted
			// the failure; fall through to a fresh boot, whose persist
			// will overwrite the bad entry.
		}
	}
	k, err := p.bootWithRetry(boot)
	if err != nil {
		p.breakerFail(e)
		return err
	}
	obs.Add(obs.CPoolBoot, 1)
	// e.snap is published under e.mu as well as via e.armed: callers
	// read it after the armed.Load fast path (release/acquire ordered),
	// Stats reads it under e.mu only.
	e.mu.Lock()
	e.snap = Take(k)
	e.idle = append(e.idle, &Machine{K: k, Snap: e.snap, key: key, pool: p, fresh: true})
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
	p.breakerOK(e)
	e.armed.Store(true)
	return nil
}

// bootWithRetry runs the boot closure up to BootAttempts times with
// capped exponential backoff between tries, returning the last error.
// Transient faults (an injected boot failure, a racing resource) heal
// here; deterministic ones (a §4.1 verify refusal) fail every attempt
// and feed the breaker.
func (p *Pool) bootWithRetry(boot func() (*kernel.Kernel, error)) (*kernel.Kernel, error) {
	backoff := bootBackoff
	var lastErr error
	for attempt := 0; attempt < p.bootAttempts(); attempt++ {
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
	fault.SleepAt(fault.PoolAcquire) // wedged/slow-guest injection
	e := p.entry(key)
	if err := p.ensureBooted(e, key, boot); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		m := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		if !m.fresh {
			obs.Add(obs.CPoolHit, 1)
		}
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

// BreakerInfo describes one key's circuit-breaker state for readiness
// checks and operator inspection.
type BreakerInfo struct {
	Key        Key
	Failures   int
	Open       bool
	RetryAfter time.Duration
}

// Breakers lists the breaker state of every key that has failed at
// least once (healthy keys are omitted). /readyz degrades when every
// known key is open.
func (p *Pool) Breakers() []BreakerInfo {
	var out []BreakerInfo
	thr := p.breakerThreshold()
	for _, e := range p.snapshotEntries() {
		e.mu.Lock()
		if e.fails > 0 {
			info := BreakerInfo{Key: e.key, Failures: e.fails}
			if e.fails >= thr {
				//camo:nondet reporting the live breaker deadline; diagnostics only
				if wait := time.Until(e.openUntil); wait > 0 {
					info.Open = true
					info.RetryAfter = wait
				}
			}
			out = append(out, info)
		}
		e.mu.Unlock()
	}
	return out
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

// EvictIdle trims every key's idle list down to keep parked machines
// (keep <= 0 empties them), returning how many machines were let go.
// Evictions are counted separately from Release-time drops so Stats can
// distinguish deliberate shrinking from parking pressure. The
// copy-on-write bases stay cached: the next Acquire of an evicted key
// forks, it does not re-boot.
func (p *Pool) EvictIdle(keep int) int {
	if keep < 0 {
		keep = 0
	}
	n := 0
	for _, e := range p.snapshotEntries() {
		e.mu.Lock()
		for len(e.idle) > keep {
			e.idle[len(e.idle)-1] = nil
			e.idle = e.idle[:len(e.idle)-1]
			n++
		}
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
// high parallelism it just means Releases exceeded MaxIdlePerKey.
// Evicted counts idle machines deliberately let go through EvictIdle.
// StoreLoads counts verified loads from the persistent store (each
// arms a key with zero boots); StorePersists counts snapshots written
// to it.
//
// Keys, Idle and Forks describe this pool. The other fields are process
// totals, read from the obs registry that counts each event once
// (DESIGN.md §11); in a process that runs one pool, as the daemon does,
// they are that pool's counts.
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
	// Failure-path counters (DESIGN.md §13): boot attempts retried,
	// breaker trips, and Acquires fast-failed by an open breaker.
	BootRetries      uint64 `json:"boot_retries,omitempty"`
	BreakerTrips     uint64 `json:"breaker_trips,omitempty"`
	BreakerFastFails uint64 `json:"breaker_fast_fails,omitempty"`
}

// Stats returns current counters. Forks aggregates every fork taken
// from the pool's snapshots — through Acquire and through holders of a
// SnapshotFor result alike — so the boots-vs-machines-served ratio
// reflects all pool-derived machines.
func (p *Pool) Stats() Stats {
	st := Stats{
		Boots:            obs.CounterTotal(obs.CPoolBoot),
		Reuses:           obs.CounterTotal(obs.CPoolHit),
		Dropped:          obs.CounterTotal(obs.CPoolDrop),
		Evicted:          obs.CounterTotal(obs.CPoolEvict),
		StoreLoads:       obs.CounterTotal(obs.CStoreHit),
		StorePersists:    obs.CounterTotal(obs.CStoreSave),
		BootRetries:      obs.CounterTotal(obs.CBootRetry),
		BreakerTrips:     obs.CounterTotal(obs.CBreakerTrip),
		BreakerFastFails: obs.CounterTotal(obs.CBreakerFastFail),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st.Keys = len(p.entries)
	//camo:nondet stat sums commute; per-entry locks only guard concurrent mutation
	for _, e := range p.entries {
		e.mu.Lock()
		st.Idle += len(e.idle)
		if e.snap != nil {
			st.Forks += e.snap.Forks()
		}
		e.mu.Unlock()
	}
	return st
}
