package snapshot

import (
	"errors"
	"testing"
	"time"

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
	pool.BootBackoff = time.Millisecond
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
	pool.BootAttempts = 1
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

// TestBreakerOpensFastFailsAndHalfOpens walks the breaker state
// machine: threshold consecutive failures open it, an open key
// fast-fails without running the boot closure, and after the reset
// timer one half-open probe closes it again.
func TestBreakerOpensFastFailsAndHalfOpens(t *testing.T) {
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 73}
	key := KeyFor(opts)
	pool := NewPool()
	pool.BootAttempts = 1
	pool.BreakerThreshold = 2
	pool.BreakerReset = 80 * time.Millisecond
	before := pool.Stats()

	calls := 0
	failing := func() (*kernel.Kernel, error) {
		calls++
		return nil, errors.New("boot keeps failing")
	}
	for i := 0; i < 2; i++ {
		if _, err := pool.Acquire(key, failing); err == nil {
			t.Fatal("failing Acquire succeeded")
		}
	}
	if calls != 2 {
		t.Fatalf("boot closure ran %d times, want 2", calls)
	}

	// Open: fast-fail with the typed error, no boot attempt.
	_, err := pool.Acquire(key, failing)
	var be *BreakerOpenError
	if !errors.As(err, &be) {
		t.Fatalf("open-breaker Acquire = %v, want *BreakerOpenError", err)
	}
	if be.Failures != 2 || be.RetryAfter <= 0 || be.Key.Digest != key.Digest {
		t.Fatalf("breaker error = %+v", be)
	}
	if calls != 2 {
		t.Fatalf("open breaker still ran the boot closure (%d calls)", calls)
	}
	brs := pool.Breakers()
	if len(brs) != 1 || !brs[0].Open || brs[0].Failures != 2 {
		t.Fatalf("Breakers() = %+v, want one open entry", brs)
	}
	st := pool.Stats()
	trips := st.BreakerTrips - before.BreakerTrips
	fastFails := st.BreakerFastFails - before.BreakerFastFails
	if trips == 0 || fastFails != 1 {
		t.Fatalf("%d trips and %d fast fails, want trips>0 fastFails=1", trips, fastFails)
	}

	// Half-open after the reset timer: one probe runs and closes it.
	time.Sleep(100 * time.Millisecond)
	m, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatalf("half-open probe Acquire: %v", err)
	}
	m.Release()
	if brs := pool.Breakers(); len(brs) != 0 {
		t.Fatalf("Breakers() after recovery = %+v, want empty", brs)
	}
}

// TestBreakerProbeFailureReopens: a failed half-open probe re-opens the
// breaker for another full reset window.
func TestBreakerProbeFailureReopens(t *testing.T) {
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 74}
	key := KeyFor(opts)
	pool := NewPool()
	pool.BootAttempts = 1
	pool.BreakerThreshold = 1
	pool.BreakerReset = 60 * time.Millisecond
	before := pool.Stats()

	failing := func() (*kernel.Kernel, error) {
		return nil, errors.New("still down")
	}
	if _, err := pool.Acquire(key, failing); err == nil {
		t.Fatal("failing Acquire succeeded")
	}
	var be *BreakerOpenError
	if _, err := pool.Acquire(key, failing); !errors.As(err, &be) {
		t.Fatalf("want fast fail, got %v", err)
	}

	time.Sleep(80 * time.Millisecond)
	// Probe allowed through — and it fails, re-opening the breaker.
	if _, err := pool.Acquire(key, failing); errors.As(err, &be) {
		t.Fatalf("probe was fast-failed instead of attempted: %v", err)
	}
	if _, err := pool.Acquire(key, failing); !errors.As(err, &be) {
		t.Fatalf("breaker did not re-open after failed probe: %v", err)
	}
	if be.Failures != 2 {
		t.Fatalf("failures = %d, want 2", be.Failures)
	}

	// And a successful probe after another window heals it for good.
	time.Sleep(80 * time.Millisecond)
	m, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	m.Release()
	if boots := pool.Stats().Boots - before.Boots; boots != 1 {
		t.Fatalf("%d boots, want 1", boots)
	}
}

// TestVerifyFaultFeedsBreaker: injected §4.1 verify failures behave
// like boot failures — retried, then breaker-counted.
func TestVerifyFaultFeedsBreaker(t *testing.T) {
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 75}
	key := KeyFor(opts)
	pool := NewPool()
	pool.BootAttempts = 1
	pool.BreakerThreshold = 1
	pool.BreakerReset = time.Minute

	r := withFaults(t, "pool.verify=1")
	_, err := pool.Acquire(key, BootOptions(opts))
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.PoolVerify {
		t.Fatalf("Acquire = %v, want injected pool.verify failure", err)
	}
	if r.Fired(fault.PoolVerify) != 1 {
		t.Fatal("verify fault did not fire")
	}
	var be *BreakerOpenError
	if _, err := pool.Acquire(key, BootOptions(opts)); !errors.As(err, &be) {
		t.Fatalf("breaker did not open on verify failure: %v", err)
	}
}
