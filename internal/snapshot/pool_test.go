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
	before := pool.Stats()

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
	dropped := st.Dropped - before.Dropped
	if got := st.Idle + int(dropped); got != machines {
		t.Fatalf("idle (%d) + dropped (%d) = %d, want %d (every release parks or drops)",
			st.Idle, dropped, got, machines)
	}
	if boots := st.Boots - before.Boots; boots != 1 {
		t.Fatalf("boots = %d, want 1", boots)
	}
}

// TestEvictIdle: trimming the idle list is accounted separately from
// Release drops, an evicted key still answers the next Acquire from the
// cached snapshot (a fork, not a re-boot), and evictions racing
// Acquire/Release of the key are safe.
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
	before := pool.Stats()
	if before.Idle != 4 {
		t.Fatalf("idle = %d, want 4", before.Idle)
	}

	if n := pool.EvictIdle(1); n != 3 {
		t.Fatalf("EvictIdle(1) = %d, want 3", n)
	}
	st := pool.Stats()
	if evicted := st.Evicted - before.Evicted; st.Idle != 1 || evicted != 3 {
		t.Fatalf("after eviction: idle = %d evicted = %d, want 1 and 3", st.Idle, evicted)
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

	// Evictions racing Acquire/Release of the same key (run under
	// -race): every Acquire still gets a machine, nothing re-boots, and
	// a last EvictIdle(0) empties the key.
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
	pool.EvictIdle(0)
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
