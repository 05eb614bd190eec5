package server

// Robustness surface of the daemon: the per-job panic barrier, the
// /healthz + /readyz probes, a job retried after its response was lost,
// a key whose every boot fails, request-body validation, and the run
// watchdog.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/client"
	"camouflage/internal/fault"
	"camouflage/internal/figures"
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

// TestRetryReRunsJobWhoseResponseWasLost: a job POST whose response
// never reaches the client is sent again, and the daemon runs the job
// again. A wrapper hands the first POST /v1/experiments to the daemon,
// lets the job run to completion, then closes the connection without
// answering. The retry's output is the bytes of a local run, and the
// queue started two jobs: the lost one and the retry.
func TestRetryReRunsJobWhoseResponseWasLost(t *testing.T) {
	s := New(Config{})
	var dropped atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/experiments" || !dropped.CompareAndSwap(false, true) {
			s.ServeHTTP(w, r)
			return
		}
		s.ServeHTTP(httptest.NewRecorder(), r)
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(hs.Close)
	c := client.New(hs.URL)
	c.Retry.BaseDelay = time.Millisecond
	c.Retry.MaxDelay = 2 * time.Millisecond

	ids := []string{"table1", "keys"}
	var local bytes.Buffer
	if _, err := figures.RunAllWith(context.Background(), &local, figures.RunOptions{IDs: ids}); err != nil {
		t.Fatal(err)
	}
	starts := s.queue.starts.Load()
	resp, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{IDs: ids})
	if err != nil {
		t.Fatalf("job whose first response was lost: %v", err)
	}
	if !dropped.Load() {
		t.Fatal("the wrapper dropped no response")
	}
	if resp.Output != local.String() {
		t.Fatalf("retried job's output differs from the local run:\n--- served ---\n%s\n--- local ---\n%s",
			resp.Output, local.String())
	}
	if n := s.queue.starts.Load() - starts; n != 2 {
		t.Fatalf("the queue started %d jobs, want 2: the run whose response was lost and its retry", n)
	}
}

// TestFailedBootFailsOnlyItsRequests: a key whose every boot fails
// answers each lease request 500 with its boot error, after the pool's
// three attempts. Nothing turns it into a fast-fail: no request carries
// Retry-After, every request pays its own three boots, and /readyz
// stays 200.
func TestFailedBootFailsOnlyItsRequests(t *testing.T) {
	withFreshPool(t)
	_, hs, _ := newTestServer(t, Config{})
	r := withServerFaults(t, "pool.boot=all")

	for i := 0; i < 6; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/machines", `{"level":"backward-edge","seed":91}`, nil)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, string(fault.PoolBoot)) {
			t.Fatalf("lease %d of a key that cannot boot = %d %s, want 500 naming %s", i, resp.StatusCode, body, fault.PoolBoot)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("lease %d carries Retry-After %q", i, ra)
		}
	}
	if n := r.Fired(fault.PoolBoot); n != 18 {
		t.Fatalf("%s fired %d times, want 18: three attempts for each of six requests", fault.PoolBoot, n)
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after six failed boots = %d, want 200", resp.StatusCode)
	}
}

// TestLeaseRunEndsAtOnce pins what keeps every lease operation short:
// no route loads a program into a leased machine, so a /run at the
// maxRunBudget cap finds the machine at its post-boot halt and retires a
// few dozen instructions. Drain and the idle reaper lock each lease and
// rely on this; a route that loads a program must bound lease
// operations itself.
func TestLeaseRunEndsAtOnce(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	for _, req := range []client.MachineRequest{
		{Level: "none", Seed: 93},
		{Level: "full", Seed: 93, CPUs: 2},
	} {
		m, err := c.Lease(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.State(ctx)
		if err != nil {
			t.Fatal(err)
		}
		prev := st.Instrs
		for i := 0; i < 2; i++ {
			run, err := m.Run(ctx, maxRunBudget)
			if err != nil {
				t.Fatal(err)
			}
			if n := run.Instrs - prev; n > 100 {
				t.Fatalf("%+v: /run %d retired %d instructions, want at most 100", req, i, n)
			}
			prev = run.Instrs
		}
		if err := m.Release(ctx); err != nil {
			t.Fatal(err)
		}
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
// and the daemon stays ready.
func TestOutOfRangeCPUsRejected(t *testing.T) {
	pool := withFreshPool(t)
	s, hs, _ := newTestServer(t, Config{})
	before := pool.Stats()

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
	if st := pool.Stats(); st.Boots != before.Boots || st.BootRetries != before.BootRetries {
		t.Fatalf("rejected requests reached the pool: %+v, before %+v", st, before)
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

// TestTrailingBodyDataRejected: a body holds one JSON value. Data after
// it (a second object, a stray byte) answers 400 before admission, while
// white space after it is accepted.
func TestTrailingBodyDataRejected(t *testing.T) {
	pool := withFreshPool(t)
	s, hs, _ := newTestServer(t, Config{})
	before := pool.Stats()
	for _, c := range []struct{ path, body string }{
		{"/v1/campaigns", `{"mutations":4}{"mutations":9}`},
		{"/v1/experiments", `{"ids":["keys"]} {"ids":["fig2"]}`},
		{"/v1/machines", `{"level":"none"}x`},
	} {
		if resp, body := postJSON(t, hs.URL+c.path, c.body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s = %d, want 400 (body %s)", c.path, c.body, resp.StatusCode, body)
		}
	}
	if n := s.queue.starts.Load(); n != 0 {
		t.Fatalf("requests with trailing data were admitted: %d jobs started", n)
	}
	if boots := pool.Stats().Boots - before.Boots; boots != 0 {
		t.Fatalf("requests with trailing data reached the pool: %d boots", boots)
	}
	if resp, body := postJSON(t, hs.URL+"/v1/experiments", "{\"ids\":[\"keys\"]}\n", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/experiments with a trailing newline = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

// FuzzReadJSON feeds arbitrary request bodies to readJSON, once for
// every request type the daemon decodes: no panic, and either a 400
// whose body is the {"error": ...} envelope, or acceptance with nothing
// written and a value whose JSON decodes back to the same value. Values
// are compared by their encoding: omitempty makes an empty list and an
// absent one the same request.
func FuzzReadJSON(f *testing.F) {
	retired := "parallel" + "_smp" // spelled in two pieces, as in TestSMPLeaseAndCampaignCPUs
	for _, seed := range []string{
		`{"mutations":4}{"mutations":9}`,
		`{"ids":["keys"]} {"ids":["fig2"]}`,
		`{"level":"none"}x`,
		"{\"ids\":[\"keys\"]}\n",
		`{"level":"full","cpus":9}`,
		`{"level":"none","cpus":-1}`,
		`{"ids":["keys"],"cpus":9}`,
		`{"mutations":1,"levels":["none"],"cpus":9}`,
		`{"mutations":1000000000000,"levels":["none"]}`,
		`{"level":"none","seed":81,"cpus":2,"` + retired + `":true}`,
		`{"max_instrs":1000}`,
		`{"pinned":true}`, // the body of the retired pin route
		``,
	} {
		f.Add([]byte(seed))
	}
	types := []func() any{
		func() any { return new(client.ExperimentsRequest) },
		func() any { return new(client.CampaignRequest) },
		func() any { return new(client.MachineRequest) },
		func() any { return new(client.MachineRunRequest) },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, mk := range types {
			v := mk()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if !readJSON(rec, req, v) {
				var eb map[string]string
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("%T: rejected with %d, want 400", v, rec.Code)
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || len(eb) != 1 || eb["error"] == "" {
					t.Fatalf("%T: 400 body %q is not an error envelope (%v)", v, rec.Body.String(), err)
				}
				continue
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("%T: accepted body wrote %q", v, rec.Body.String())
			}
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%T: accepted value %+v does not marshal: %v", v, v, err)
			}
			back := mk()
			if err := json.Unmarshal(enc, back); err != nil {
				t.Fatalf("%T: %s does not decode: %v", v, enc, err)
			}
			if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("%T: %s decodes back to %+v, which marshals to %s (%v)", v, enc, back, again, err)
			}
		}
	})
}
