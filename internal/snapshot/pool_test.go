package snapshot

import (
	"errors"
	"sync"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/fault"
	"camouflage/internal/kernel"
)

func withFaults(t *testing.T, spec string) *fault.Registry {
	t.Helper()
	r, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(prev) })
	return r
}

// TestBootRetryHealsTransientFault: the first two boot attempts fail by
// injection; the third succeeds inside one Acquire, invisibly to the
// caller.
func TestBootRetryHealsTransientFault(t *testing.T) {
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 71}
	key := KeyFor(opts)
	pool := NewPool()
	before := pool.Stats()

	withFaults(t, "pool.boot=2")
	m, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatalf("Acquire with transient boot faults: %v", err)
	}
	m.Release()
	st := pool.Stats()
	boots, retries := st.Boots-before.Boots, st.BootRetries-before.BootRetries
	if boots != 1 || retries != 2 {
		t.Fatalf("%d boots after %d retries, want 1 boot after 2 retries", boots, retries)
	}
}

// TestFailedBootDoesNotPoisonKey is the sync.Once-poisoning regression:
// an arming that fails every retry must leave the key retryable, so the
// next Acquire — with the cause healed — succeeds.
func TestFailedBootDoesNotPoisonKey(t *testing.T) {
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 72}
	key := KeyFor(opts)
	pool := NewPool()
	before := pool.Stats()

	bootErr := errors.New("transient resource failure")
	if _, err := pool.Acquire(key, func() (*kernel.Kernel, error) {
		return nil, bootErr
	}); !errors.Is(err, bootErr) {
		t.Fatalf("failing Acquire = %v, want bootErr", err)
	}

	m, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatalf("Acquire after healed failure: %v (key poisoned)", err)
	}
	m.Release()
	if boots := pool.Stats().Boots - before.Boots; boots != 1 {
		t.Fatalf("%d boots, want exactly 1", boots)
	}
}

// TestMaxIdlePerKeyEnforcedUnderConcurrentRelease: hammering Release
// from many goroutines must never park more than maxIdlePerKey machines
// — the bound is rechecked under the entry lock after the reset, so the
// check-reset-park race cannot overshoot. Machines beyond the bound are
// accounted as Dropped.
func TestMaxIdlePerKeyEnforcedUnderConcurrentRelease(t *testing.T) {
	pool := NewPool()
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 51}
	key := KeyFor(opts)
	before := pool.Stats()

	const machines = maxIdlePerKey + 8
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
	if st.Idle > maxIdlePerKey {
		t.Fatalf("idle = %d, want <= maxIdlePerKey = %d", st.Idle, maxIdlePerKey)
	}
	dropped := st.Dropped - before.Dropped
	if got := st.Idle + int(dropped); got != machines {
		t.Fatalf("idle (%d) + dropped (%d) = %d, want %d (every release parks or drops)",
			st.Idle, dropped, got, machines)
	}
	if boots := st.Boots - before.Boots; boots != 1 {
		t.Fatalf("boots = %d, want 1", boots)
	}
}

// TestEvictIdle: arming a key parks no machine, so the booted origin
// does not outlive its capture and every Acquire of a cold key forks;
// emptying the idle lists is accounted separately from Release drops,
// an evicted key still answers the next Acquire from the cached
// snapshot (a fork, not a re-boot), and evictions racing Acquire/Release
// of the key are safe.
func TestEvictIdle(t *testing.T) {
	pool := NewPool()
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 52}
	key := KeyFor(opts)

	if _, err := pool.SnapshotFor(key, BootOptions(opts)); err != nil {
		t.Fatal(err)
	}
	armed := pool.Stats()
	if armed.Idle != 0 {
		t.Fatalf("arming the key parked %d machines, want 0", armed.Idle)
	}
	ms := make([]*Machine, 4)
	for i := range ms {
		m, err := pool.Acquire(key, BootOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	if st := pool.Stats(); st.Forks-armed.Forks != 4 || st.Reuses != armed.Reuses {
		t.Fatalf("4 Acquires of an armed key forked %d and reused %d, want 4 and 0",
			st.Forks-armed.Forks, st.Reuses-armed.Reuses)
	}
	for _, m := range ms {
		m.Release()
	}
	before := pool.Stats()
	if before.Idle != 4 {
		t.Fatalf("idle = %d, want 4", before.Idle)
	}

	if n := pool.EvictIdle(); n != 4 {
		t.Fatalf("EvictIdle() = %d, want 4", n)
	}
	st := pool.Stats()
	if evicted := st.Evicted - before.Evicted; st.Idle != 0 || evicted != 4 {
		t.Fatalf("after eviction: idle = %d evicted = %d, want 0 and 4", st.Idle, evicted)
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

	// Evictions racing Acquire/Release of the same key (run under
	// -race): every Acquire still gets a machine, nothing re-boots, and
	// a last EvictIdle empties the key.
	stop := make(chan struct{})
	evictorDone := make(chan struct{})
	go func() {
		defer close(evictorDone)
		for {
			select {
			case <-stop:
				return
			default:
				pool.EvictIdle()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				m, err := pool.Acquire(key, BootOptions(opts))
				if err != nil {
					t.Error(err)
					return
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-evictorDone
	pool.EvictIdle()
	if st := pool.Stats(); st.Idle != 0 || st.Boots != bootsBefore {
		t.Fatalf("after racing evictions: idle = %d, boots %d -> %d", st.Idle, bootsBefore, st.Boots)
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
