package client

// Client resilience: the default per-request timeout, the retry policy
// (which requests retry, which failure classes, the Retry-After
// floor), and injected transport faults healing transparently.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/internal/fault"
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

func fastClient(url string) *Client {
	c := New(url)
	c.Retry.BaseDelay = time.Millisecond
	c.Retry.MaxDelay = 2 * time.Millisecond
	return c
}

func TestDefaults(t *testing.T) {
	c := New("http://example.invalid")
	if c.HTTP == http.DefaultClient || c.HTTP.Timeout != DefaultTimeout {
		t.Fatalf("New did not install a dedicated client with the default timeout (got %v)", c.HTTP.Timeout)
	}
	if c.Retry != DefaultRetryPolicy() {
		t.Fatalf("Retry = %+v, want the default policy", c.Retry)
	}
}

// TestRetryHealsInjectedResets: two injected connection resets are
// absorbed; the server sees exactly one request.
func TestRetryHealsInjectedResets(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"pool":{},"queue":{},"leases":{},"metrics":{}}`))
	}))
	defer hs.Close()
	r := withFaults(t, "client.reset=2")

	if _, err := fastClient(hs.URL).Stats(context.Background()); err != nil {
		t.Fatalf("Stats under transient resets: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (resets fire before sending)", hits.Load())
	}
	if r.Fired(fault.ClientReset) != 2 {
		t.Fatalf("resets fired %d times, want 2", r.Fired(fault.ClientReset))
	}
}

// TestRetry503ThenSuccess: a 503 with Retry-After: 0, such as a proxy
// in front of the daemon may send, retries and succeeds on the next
// attempt.
func TestRetry503ThenSuccess(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"pool":{},"queue":{},"leases":{},"metrics":{}}`))
	}))
	defer hs.Close()

	if _, err := fastClient(hs.URL).Stats(context.Background()); err != nil {
		t.Fatalf("Stats after transient 503: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2", hits.Load())
	}
}

// TestNonIdempotentPostNeverRetries: a POST other than a job
// submission (here a lease) is sent once, even on a retryable status
// class.
func TestNonIdempotentPostNeverRetries(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	if _, err := fastClient(hs.URL).Lease(context.Background(), MachineRequest{}); err == nil {
		t.Fatal("Lease against a 503 server succeeded")
	}
	if hits.Load() != 1 {
		t.Fatalf("non-idempotent POST was retried: %d requests", hits.Load())
	}
}

// TestClientErrors4xxNotRetried: client mistakes (400/404) fail
// immediately even on retryable GETs.
func TestClientErrors4xxNotRetried(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
	}))
	defer hs.Close()

	if _, err := fastClient(hs.URL).Stats(context.Background()); err == nil {
		t.Fatal("404 GET succeeded")
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx was retried: %d requests", hits.Load())
	}
}

// TestBackoffHonorsRetryAfterFloor: a server hint above the jittered
// exponential delay floors it.
func TestBackoffHonorsRetryAfterFloor(t *testing.T) {
	c := New("http://example.invalid")
	if d := c.backoff(1, 3*time.Second); d != 3*time.Second {
		t.Fatalf("backoff with 3s hint = %v, want exactly the hint", d)
	}
	// Without a hint the delay is jittered around the base: bounded by
	// [base/2, base*3/2].
	c.Retry.BaseDelay = 100 * time.Millisecond
	for i := 0; i < 32; i++ {
		d := c.backoff(1, retryAfterSentinel)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered first backoff = %v, want within [50ms, 150ms]", d)
		}
	}
}

// TestStallFaultDelays: an injected stall slows the request without
// failing it.
func TestStallFaultDelays(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"pool":{},"queue":{},"leases":{},"metrics":{}}`))
	}))
	defer hs.Close()
	withFaults(t, "client.stall=1:30ms")

	t0 := time.Now()
	if _, err := fastClient(hs.URL).Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 30*time.Millisecond {
		t.Fatalf("stalled request returned in %v, want >= 30ms", took)
	}
}
