package snapshot

import (
	"sync"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/kernel"
)

// TestMaxIdlePerKeyEnforcedUnderConcurrentRelease: hammering Release
// from many goroutines must never park more than MaxIdlePerKey machines
// — the bound is rechecked under the entry lock after the reset, so the
// check-reset-park race cannot overshoot. Machines beyond the bound are
// accounted as Dropped.
func TestMaxIdlePerKeyEnforcedUnderConcurrentRelease(t *testing.T) {
	pool := NewPool()
	pool.MaxIdlePerKey = 3
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 51}
	key := KeyFor(opts)

	const machines = 12
	ms := make([]*Machine, machines)
	for i := range ms {
		m, err := pool.Acquire(key, BootOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}

	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			m.Release()
		}(m)
	}
	wg.Wait()

	st := pool.Stats()
	if st.Idle > pool.MaxIdlePerKey {
		t.Fatalf("idle = %d, want <= MaxIdlePerKey = %d", st.Idle, pool.MaxIdlePerKey)
	}
	if got := st.Idle + int(st.Dropped); got != machines {
		t.Fatalf("idle (%d) + dropped (%d) = %d, want %d (every release parks or drops)",
			st.Idle, st.Dropped, got, machines)
	}
	if st.Boots != 1 {
		t.Fatalf("boots = %d, want 1", st.Boots)
	}
}

// TestEvictIdle: trimming the idle list is accounted separately from
// Release drops, and an evicted key still answers the next Acquire from
// the cached snapshot (a fork, not a re-boot).
func TestEvictIdle(t *testing.T) {
	pool := NewPool()
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 52}
	key := KeyFor(opts)

	ms := make([]*Machine, 4)
	for i := range ms {
		m, err := pool.Acquire(key, BootOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	for _, m := range ms {
		m.Release()
	}
	if st := pool.Stats(); st.Idle != 4 {
		t.Fatalf("idle = %d, want 4", st.Idle)
	}

	if n := pool.EvictIdle(1); n != 3 {
		t.Fatalf("EvictIdle(1) = %d, want 3", n)
	}
	st := pool.Stats()
	if st.Idle != 1 || st.Evicted != 3 {
		t.Fatalf("after eviction: idle = %d evicted = %d, want 1 and 3", st.Idle, st.Evicted)
	}

	if n := pool.EvictIdle(0); n != 1 {
		t.Fatalf("EvictIdle(0) = %d, want 1", n)
	}
	bootsBefore := pool.Stats().Boots
	m, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if st := pool.Stats(); st.Boots != bootsBefore {
		t.Fatalf("acquire after full eviction re-booted (boots %d -> %d)", bootsBefore, st.Boots)
	}
}

// TestMachineKey: the lease API reports the pool key per machine; the
// key survives Release (only the pool pointer is consumed) so
// diagnostics after release still identify the configuration.
func TestMachineKey(t *testing.T) {
	pool := NewPool()
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 53}
	key := KeyFor(opts)
	m, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if m.Key() != key {
		t.Fatalf("Key() = %+v, want %+v", m.Key(), key)
	}
	m.Release()
}

// fakeStore is an in-memory snapshot.Store for pool-level tests: Load
// always misses, Save hands back the digest listed for the key. Distinct
// keys get distinct digests, as in the content-addressed store, so Pin
// finds exactly one entry.
type fakeStore struct {
	mu      sync.Mutex
	digests map[Key]string
	saves   int
}

func (f *fakeStore) Load(Key) (*Snapshot, string, error) { return nil, "", ErrNotFound }
func (f *fakeStore) Save(k Key, _ *Snapshot) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	return f.digests[k], nil
}

// TestPinnedKeySurvivesEvictIdle: regression test for the pinned-evict
// race. A pinned key's idle machines must survive EvictIdle — including
// an EvictIdle racing with concurrent Acquire/Release traffic on the
// same key — while unpinned keys are still trimmed.
func TestPinnedKeySurvivesEvictIdle(t *testing.T) {
	pool := NewPool()
	optsPinned := kernel.Options{Config: codegen.ConfigBackward(), Seed: 61}
	optsPlain := kernel.Options{Config: codegen.ConfigBackward(), Seed: 62}
	keyPinned, keyPlain := KeyFor(optsPinned), KeyFor(optsPlain)
	pool.Store = &fakeStore{digests: map[Key]string{keyPinned: "pinned-digest", keyPlain: "plain-digest"}}

	mp, err := pool.Acquire(keyPinned, BootOptions(optsPinned))
	if err != nil {
		t.Fatal(err)
	}
	pool.WaitPersist() // digest lands asynchronously; Pin needs it
	if !pool.Pin("pinned-digest", true) {
		t.Fatal("Pin found no resident entry for the persisted digest")
	}
	mp.Release()
	mo, err := pool.Acquire(keyPlain, BootOptions(optsPlain))
	if err != nil {
		t.Fatal(err)
	}
	mo.Release()

	// Race Acquire/Release of the pinned key against repeated evictions.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	evictorDone := make(chan struct{})
	go func() {
		defer close(evictorDone)
		for {
			select {
			case <-stop:
				return
			default:
				pool.EvictIdle(0)
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				m, err := pool.Acquire(keyPinned, BootOptions(optsPinned))
				if err != nil {
					t.Error(err)
					return
				}
				m.Release()
			}
		}()
	}
	wg.Wait() // workers finish, then stop the evictor
	close(stop)
	<-evictorDone

	pool.EvictIdle(0)
	var pinnedIdle, plainIdle int
	for _, e := range pool.Entries() {
		switch e.Key {
		case keyPinned:
			pinnedIdle = e.Idle
			if !e.Pinned {
				t.Fatal("pinned entry lost its pin")
			}
		case keyPlain:
			plainIdle = e.Idle
		}
	}
	if pinnedIdle == 0 {
		t.Fatal("EvictIdle(0) evicted a pinned key's idle machines")
	}
	if plainIdle != 0 {
		t.Fatalf("EvictIdle(0) left %d idle machines on an unpinned key", plainIdle)
	}

	// Unpinning re-exposes the key to eviction.
	pool.Pin("pinned-digest", false)
	pool.EvictIdle(0)
	for _, e := range pool.Entries() {
		if e.Key == keyPinned && e.Idle != 0 {
			t.Fatalf("unpinned key kept %d idle machines through EvictIdle(0)", e.Idle)
		}
	}
}
