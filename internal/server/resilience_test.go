package server

// Robustness surface of the daemon: the per-job panic barrier, the
// /healthz + /readyz probes, idempotent experiment replay, breaker
// errors mapped to 503 + Retry-After, and the run watchdog — both the
// job-context cancellation path and the lease force-expiry sweep.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"camouflage/client"
	"camouflage/internal/fault"
)

func withServerFaults(t *testing.T, spec string) *fault.Registry {
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

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestPanicBarrier: an injected in-job panic answers 500 and the daemon
// keeps serving — the next identical request succeeds. The recovered
// panic must not leak admission state (the queue slot frees during the
// unwind), which the follow-up request proves by being admitted.
func TestPanicBarrier(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	withServerFaults(t, "server.job=1")

	resp, body := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "panic") {
		t.Fatalf("500 body does not mention the recovered panic: %s", body)
	}

	resp, body = postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

// TestHealthzAlwaysOK: liveness never degrades, even mid-drain.
func TestHealthzAlwaysOK(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{})
	for _, phase := range []string{"fresh", "draining"} {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz (%s) = %d, want 200", phase, resp.StatusCode)
		}
		if phase == "fresh" {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = s.Drain(ctx)
			cancel()
		}
	}
}

// TestReadyzDegradesOnDrain: a fresh daemon is ready; a draining one
// answers 503 with the draining check flagged.
func TestReadyzDegradesOnDrain(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{})

	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh readyz = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_ = s.Drain(ctx)
	cancel()

	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Ready  bool                  `json:"ready"`
		Checks map[string]readyCheck `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || out.Ready {
		t.Fatalf("draining readyz = %d ready=%v, want 503 not-ready", resp.StatusCode, out.Ready)
	}
	if out.Checks["draining"].OK {
		t.Fatalf("draining check passed while draining: %+v", out.Checks)
	}
	if !out.Checks["queue"].OK {
		t.Fatalf("queue check failed on an idle daemon: %+v", out.Checks)
	}
}

// TestIdempotentReplay: a repeated POST with the same Idempotency-Key
// answers from the stored response — byte-identical body, replay
// header set, and the job itself runs exactly once.
func TestIdempotentReplay(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{})
	hdr := map[string]string{"Idempotency-Key": "idem-test-1"}

	resp1, body1 := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, hdr)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d (body %s)", resp1.StatusCode, body1)
	}
	startsAfterFirst := s.queue.starts.Load()

	resp2, body2 := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, hdr)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed request = %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Idempotency-Replay") != "true" {
		t.Fatal("replay did not set Idempotency-Replay: true")
	}
	if body2 != body1 {
		t.Fatalf("replayed body differs:\n--- first ---\n%s\n--- replay ---\n%s", body1, body2)
	}
	if got := s.queue.starts.Load(); got != startsAfterFirst {
		t.Fatalf("replay re-ran the job: %d starts, want %d", got, startsAfterFirst)
	}

	// A different key runs fresh.
	resp3, _ := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`,
		map[string]string{"Idempotency-Key": "idem-test-2"})
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("Idempotency-Replay") == "true" {
		t.Fatalf("fresh key was replayed (status %d)", resp3.StatusCode)
	}
	if got := s.queue.starts.Load(); got != startsAfterFirst+1 {
		t.Fatalf("fresh key did not run: %d starts, want %d", got, startsAfterFirst+1)
	}
}

// TestIdempotentFailureNotCached: a failed run (here: an injected in-job
// panic answered 500) must not be replayed — the retry with the same
// key actually re-runs, and succeeds once the fault is exhausted.
func TestIdempotentFailureNotCached(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	withServerFaults(t, "server.job=1")
	hdr := map[string]string{"Idempotency-Key": "idem-fail-1"}

	resp, _ := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, hdr)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted request = %d, want 500", resp.StatusCode)
	}
	resp, body := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after cached failure = %d (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Idempotency-Replay") == "true" {
		t.Fatal("failure was replayed instead of re-run")
	}
}

// TestBreakerAnswers503RetryAfter: once a key's circuit breaker opens,
// lease requests for it fast-fail with 503 and a Retry-After hint.
func TestBreakerAnswers503RetryAfter(t *testing.T) {
	pool := withFreshPool(t)
	pool.BootAttempts = 1
	pool.BreakerThreshold = 1
	pool.BreakerReset = time.Minute
	_, hs, _ := newTestServer(t, Config{})
	withServerFaults(t, "pool.boot=all")

	resp, _ := postJSON(t, hs.URL+"/v1/machines", `{"level":"backward-edge","seed":91}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first faulted lease = %d, want 500", resp.StatusCode)
	}
	resp, body := postJSON(t, hs.URL+"/v1/machines", `{"level":"backward-edge","seed":91}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker lease = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 breaker response missing Retry-After")
	}
	if !strings.Contains(body, "breaker open") {
		t.Fatalf("breaker 503 body: %s", body)
	}
}

// TestWatchdogCancelsOverBudgetJob: a job running past JobTimeout is
// cancelled with the watchdog as the cause (504 naming it), not a
// generic deadline error. The watchdog reaches a run between
// experiments and between the cells inside one, so fig4 alone (nine
// cells, tens of ms — far past the 5ms budget) is stopped too.
func TestWatchdogCancelsOverBudgetJob(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{JobTimeout: 5 * time.Millisecond})

	for _, body := range []string{`{"ids":["fig4","keys"]}`, `{"ids":["fig4"]}`} {
		resp, out := postJSON(t, hs.URL+"/v1/experiments", body, nil)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("over-budget job %s = %d, want 504 (body %s)", body, resp.StatusCode, out)
		}
		if !strings.Contains(out, "watchdog") {
			t.Fatalf("504 body for %s does not attribute the watchdog: %s", body, out)
		}
	}
}

// TestOutOfRangeCPUsRejected: a vCPU count outside 0..kernel.MaxCPUs is
// the client's mistake and answers 400 before admission on every route
// that takes one, and so does a campaign mutation count above
// maxCampaignMutations (10^12 strikes would exhaust memory before any
// deadline could stop the job). Nothing is admitted and nothing boots,
// so repeating the request never trips a circuit breaker and the
// daemon stays ready.
func TestOutOfRangeCPUsRejected(t *testing.T) {
	pool := withFreshPool(t)
	s, hs, _ := newTestServer(t, Config{})

	for i := 0; i < 6; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/machines", `{"level":"full","cpus":9}`, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("lease %d with cpus=9 = %d, want 400 (body %s)", i, resp.StatusCode, body)
		}
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/machines", `{"level":"none","cpus":-1}`},
		{"/v1/experiments", `{"ids":["keys"],"cpus":9}`},
		{"/v1/campaigns", `{"mutations":1,"levels":["none"],"cpus":9}`},
		{"/v1/campaigns", `{"mutations":1000000000000,"levels":["none"]}`},
	} {
		if resp, body := postJSON(t, hs.URL+c.path, c.body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s = %d, want 400 (body %s)", c.path, c.body, resp.StatusCode, body)
		}
	}
	if n := s.queue.starts.Load(); n != 0 {
		t.Fatalf("rejected requests were admitted: %d jobs started", n)
	}
	if st := pool.Stats(); st.Boots != 0 || st.BootRetries != 0 {
		t.Fatalf("rejected requests reached the pool: %+v", st)
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after rejected leases = %d, want 200", resp.StatusCode)
	}
}

// TestWatchdogForceExpiresWedgedLease: a lease whose operation runs
// past the budget is swept from the table (its id answers 404 while
// still wedged) and its machine abandoned when the operation finally
// returns — never parked back into the pool.
func TestWatchdogForceExpiresWedgedLease(t *testing.T) {
	pool := withFreshPool(t)
	s, _, c := newTestServer(t, Config{JobTimeout: 40 * time.Millisecond})
	ctx := context.Background()

	m, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge", Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := s.leases.get(m.ID)
	if !ok {
		t.Fatal("lease not found")
	}

	// Simulate a wedged operation: mark it started, hold the op lock.
	l.mu.Lock()
	l.opStart.Store(time.Now().Add(-time.Second).UnixNano())

	s.leases.reap() // the watchdog rides the reap path
	if _, ok := s.leases.get(m.ID); ok {
		t.Fatal("watchdog left the wedged lease in the table")
	}
	if st := s.leases.stats(); st.ForceExpired != 1 {
		t.Fatalf("force-expired = %d, want 1", st.ForceExpired)
	}
	if !l.watchdogged.Load() {
		t.Fatal("lease not marked watchdogged")
	}

	// The operation finishes: withLease's epilogue abandons the machine.
	l.opStart.Store(0)
	if l.watchdogged.Load() {
		l.released = true
	}
	l.mu.Unlock()

	idleBefore := pool.Stats().Idle
	if _, err := m.State(ctx); err == nil {
		t.Fatal("watchdogged lease still answers state reads")
	}
	if idle := pool.Stats().Idle; idle != idleBefore {
		t.Fatalf("abandoned machine was parked (%d -> %d idle)", idleBefore, idle)
	}
}

// TestIdemTableUnit drives the table directly: FIFO eviction skips
// in-flight entries, and a status-0 finish (handler died before
// writing) leaves the key retryable.
func TestIdemTableUnit(t *testing.T) {
	tbl := newIdemTable(2)

	e1, owner := tbl.begin("a")
	if !owner {
		t.Fatal("first begin not owner")
	}
	tbl.finish("a", e1, http.StatusOK, []byte("ok-a"))
	if e, owner := tbl.begin("a"); owner || string(e.body) != "ok-a" {
		t.Fatalf("stored 2xx not replayed (owner=%v body=%q)", owner, e.body)
	}

	// Handler died before writing: status 0 drops the entry.
	e2, _ := tbl.begin("b")
	tbl.finish("b", e2, 0, nil)
	if _, owner := tbl.begin("b"); !owner {
		t.Fatal("status-0 entry was cached; key not retryable")
	}

	// Cap is 2: key "a" (finished) is evicted FIFO, in-flight "b" stays.
	e3, _ := tbl.begin("c")
	tbl.finish("c", e3, http.StatusOK, []byte("ok-c"))
	if _, owner := tbl.begin("a"); !owner {
		t.Fatal("evicted key still replayed")
	}
}
