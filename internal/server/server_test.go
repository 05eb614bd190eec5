package server

// White-box tests of the service daemon: handler error mapping, the
// byte-identity pin between served and local sequential experiment
// runs (the contract the CI server-smoke job enforces end-to-end), the
// machine-lease lifecycle, queue shedding, deadline expiry, and — under
// -race — N concurrent experiment requests sharing one pool key.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/client"
	"camouflage/internal/figures"
	"camouflage/internal/snapshot"
)

// parityIDs is the selection the CI server-smoke job compares; keep the
// two in sync.
var parityIDs = []string{"table1", "table2", "keys", "fig4"}

// withFreshPool swaps snapshot.Shared for an empty pool until the test
// ends, for tests that count boots or idle machines. Call it before
// newTestServer: cleanups run last-in first-out, so the server closes
// before the previous pool comes back.
func withFreshPool(t *testing.T) *snapshot.Pool {
	t.Helper()
	prev := snapshot.Shared
	pool := snapshot.NewPool()
	snapshot.Shared = pool
	t.Cleanup(func() { snapshot.Shared = prev })
	return pool
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs, client.New(hs.URL)
}

// TestRemoteMatchesLocalSequential pins the tentpole acceptance
// criterion: the served rendering is byte-identical to an in-process
// sequential run.
func TestRemoteMatchesLocalSequential(t *testing.T) {
	_, _, c := newTestServer(t, Config{})

	var local bytes.Buffer
	if _, err := figures.RunAllWith(context.Background(), &local, figures.RunOptions{IDs: parityIDs}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{IDs: parityIDs})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != local.String() {
		t.Fatalf("served output differs from local sequential run:\n--- served ---\n%s\n--- local ---\n%s",
			resp.Output, local.String())
	}
	if len(resp.Experiments) != len(parityIDs) {
		t.Fatalf("stats for %d experiments, want %d", len(resp.Experiments), len(parityIDs))
	}
	for i, st := range resp.Experiments {
		if st.ID != parityIDs[i] {
			t.Fatalf("stats[%d].ID = %q, want %q", i, st.ID, parityIDs[i])
		}
	}
}

// TestHandlerErrors is the handler error-mapping table: malformed JSON,
// unknown experiment IDs, unknown leases and unknown routes.
func TestHandlerErrors(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad json", "POST", "/v1/experiments", `{"ids": [`, http.StatusBadRequest},
		{"unknown experiment", "POST", "/v1/experiments", `{"ids":["fig99"]}`, http.StatusBadRequest},
		{"bad campaign json", "POST", "/v1/campaigns", `nope`, http.StatusBadRequest},
		{"unknown campaign level", "POST", "/v1/campaigns", `{"levels":["ful"]}`, http.StatusBadRequest},
		{"unknown level", "POST", "/v1/machines", `{"level":"maximal"}`, http.StatusBadRequest},
		{"unknown lease state", "GET", "/v1/machines/m-999", ``, http.StatusNotFound},
		{"unknown lease run", "POST", "/v1/machines/m-999/run", `{}`, http.StatusNotFound},
		{"unknown route", "GET", "/v1/nope", ``, http.StatusNotFound},
		{"retired pin route", "POST", "/v1/snapshots/abc/pin", `{"pinned":true}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

// TestExpiredDeadline: a request whose deadline expires while it waits
// for a queue slot (the only slot is held) comes back 504, not 500, and
// never starts running.
func TestExpiredDeadline(t *testing.T) {
	s, _, c := newTestServer(t, Config{Concurrency: 1, MaxQueue: 4})

	release, err := s.queue.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	_, err = c.RunExperiments(context.Background(), client.ExperimentsRequest{
		IDs:        []string{"table1"},
		DeadlineMS: 50,
	})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("err = %v, want *client.APIError", err)
	}
	if apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", apiErr.Status)
	}
}

// TestQueueSheds: once capacity + wait line are full, further requests
// are rejected immediately with 503 instead of queueing unboundedly.
func TestQueueSheds(t *testing.T) {
	s, _, c := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1})

	holdSlot, err := s.queue.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer holdSlot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // fills the one wait-line seat until ctx is cancelled
		defer wg.Done()
		if rel, err := s.queue.acquire(ctx); err == nil {
			rel()
		}
	}()
	// Wait until the seat is taken.
	for i := 0; int(s.queue.inSystem.Load()) < 2 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	_, err = c.RunExperiments(context.Background(), client.ExperimentsRequest{IDs: []string{"table1"}})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	cancel()
	wg.Wait()
}

// TestMachineLeaseLifecycle drives the full lease surface: lease, run,
// state readback, reset, release, double release.
func TestMachineLeaseLifecycle(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()

	m, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge", Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if m.Key == "" || m.BootCycles == 0 {
		t.Fatalf("lease = %+v, want key and boot cycles", m)
	}

	st0, err := m.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st0.X) != 31 {
		t.Fatalf("state has %d registers, want 31", len(st0.X))
	}

	run, err := m.Run(ctx, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if run.Instrs <= st0.Instrs {
		t.Fatalf("run retired nothing (instrs %d -> %d)", st0.Instrs, run.Instrs)
	}

	if err := m.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	st1, err := m.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cycles != st0.Cycles || st1.PC != st0.PC {
		t.Fatalf("reset did not rewind: cycles %d vs %d, pc %#x vs %#x",
			st1.Cycles, st0.Cycles, st1.PC, st0.PC)
	}

	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}
	err = m.Release(ctx)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("double release err = %v, want 404 APIError", err)
	}
}

// TestClientKeepsOneConnection: one client driving every kind of answer
// the daemon gives (a value, a bare status, an error, a job rendering, a
// trace, a scrape, a chunked stats document) reuses a single keep-alive
// connection. A body closed before EOF makes net/http drop its
// connection, so a client that skips what it has no use for (a status
// answer, the tail of a chunked one after its JSON value) dials anew.
func TestClientKeepsOneConnection(t *testing.T) {
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(New(Config{}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	c := client.New(hs.URL)
	ctx := context.Background()

	m, err := c.Lease(ctx, client.MachineRequest{Level: "none", Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.State(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if err := m.Release(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("second release err = %v, want 404 APIError", err)
	}
	resp, err := c.RunExperiments(ctx, client.ExperimentsRequest{IDs: []string{"keys"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunTrace(ctx, resp.RunID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("client opened %d connections for 10 requests, want 1", n)
	}
}

// TestLeaseSharesBootAcrossClients: two leases of the same options cost
// one boot; the second is a fork or a reuse.
func TestLeaseSharesBootAcrossClients(t *testing.T) {
	pool := withFreshPool(t)
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	before := pool.Stats()

	m1, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge", Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge", Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Key != m2.Key {
		t.Fatalf("keys differ: %q vs %q", m1.Key, m2.Key)
	}
	if boots := pool.Stats().Boots - before.Boots; boots != 1 {
		t.Fatalf("boots = %d, want 1 (second lease must fork)", boots)
	}
	if err := m1.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m2.Release(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentExperimentsShareOneBoot: N concurrent /v1/experiments
// requests for an experiment that boots one configuration
// ("ablation-keys" boots full/seed-5) pay at most one additional boot
// between them — the admission contract. Run under -race this also
// checks the handler and runner plumbing for data races.
func TestConcurrentExperimentsShareOneBoot(t *testing.T) {
	_, _, c := newTestServer(t, Config{Concurrency: 8})
	before := snapshot.Shared.Stats().Boots

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{
				IDs: []string{"ablation-keys"},
			})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = resp.Output
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("request %d rendering differs from request 0", i)
		}
	}
	if boots := snapshot.Shared.Stats().Boots - before; boots > 1 {
		t.Fatalf("%d concurrent requests paid %d boots, want <= 1", n, boots)
	}
}

// TestCampaignEndpoint smokes the campaign surface with a tiny budget.
func TestCampaignEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	resp, err := c.RunCampaign(context.Background(), client.CampaignRequest{
		Mutations: 2,
		Levels:    []string{"none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Report.Cells); got != 4 {
		t.Fatalf("cells = %d, want 4 (one level x four attacks)", got)
	}
	if !strings.Contains(resp.Output, "DIFFERENTIAL ATTACK CAMPAIGN") {
		t.Fatalf("rendered output missing header:\n%s", resp.Output)
	}
	for _, cell := range resp.Report.Cells {
		if cell.Level != "none" {
			t.Fatalf("cell level %q, want none", cell.Level)
		}
	}
}

// TestStatsAndDrain: /v1/stats reflects pool and lease accounting, and
// after Drain mutating requests are rejected while reads still answer.
func TestStatsAndDrain(t *testing.T) {
	withFreshPool(t)
	s, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	// Pool and lease counts are process totals; count from here.
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	m, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge", Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if issued := st.Leases.Issued - before.Leases.Issued; st.Leases.Active != 1 || issued != 1 {
		t.Fatalf("%d active / %d issued, want 1 active / 1 issued", st.Leases.Active, issued)
	}
	if boots := st.Pool.Boots - before.Pool.Boots; boots != 1 {
		t.Fatalf("pool boots = %d, want 1", boots)
	}
	_ = m // left checked out: Drain must reclaim it

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("stats not draining after Drain")
	}
	if st.Leases.Active != 0 {
		t.Fatalf("drain left %d leases active", st.Leases.Active)
	}
	if st.Pool.Idle != 0 {
		t.Fatalf("drain left %d idle machines", st.Pool.Idle)
	}

	_, err = c.RunExperiments(ctx, client.ExperimentsRequest{IDs: []string{"table1"}})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain err = %v, want 503 APIError", err)
	}
}

// TestSMPLeaseAndCampaignCPUs: the `cpus` request field reaches the
// pool key (SMP leases never share machines with uniprocessor ones)
// and the campaign driver (the cross-core cell appears). A lease body
// from an old client that still carries the retired truly-parallel
// opt-in is granted and runs exactly like one without it.
func TestSMPLeaseAndCampaignCPUs(t *testing.T) {
	_, hs, c := newTestServer(t, Config{})
	ctx := context.Background()

	m, err := c.Lease(ctx, client.MachineRequest{Level: "none", Seed: 81, CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Key, "cpus=2") {
		t.Fatalf("lease key %q does not pin the vCPU count", m.Key)
	}
	want, err := m.Run(ctx, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}

	// The retired field's wire name is spelled in two pieces so that
	// searching the tree for it finds no live code.
	retired := "parallel" + "_smp"
	hr, body := postJSON(t, hs.URL+"/v1/machines",
		`{"level":"none","seed":81,"cpus":2,"`+retired+`":true}`, nil)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("old-client lease = %d (%s), want 200", hr.StatusCode, body)
	}
	var old client.MachineResponse
	if err := json.Unmarshal([]byte(body), &old); err != nil {
		t.Fatal(err)
	}
	if old.Key != m.Key {
		t.Fatalf("old-client lease key %q, want %q", old.Key, m.Key)
	}
	hr, body = postJSON(t, hs.URL+"/v1/machines/"+old.ID+"/run", `{"max_instrs":1000}`, nil)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("old-client run = %d (%s), want 200", hr.StatusCode, body)
	}
	var got client.MachineRunResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	got.RunID, want.RunID = "", ""
	if got != *want {
		t.Fatalf("old-client run %+v, want %+v", got, *want)
	}
	if hr, body := postJSON(t, hs.URL+"/v1/machines/"+old.ID+"/release", "", nil); hr.StatusCode != http.StatusOK {
		t.Fatalf("old-client release = %d (%s)", hr.StatusCode, body)
	}

	resp, err := c.RunCampaign(ctx, client.CampaignRequest{
		Mutations: 2, Levels: []string{"full"}, CPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cell := range resp.Report.Cells {
		if cell.Attack == "cross-core f_ops replay" {
			found = true
		}
	}
	if !found {
		t.Fatal("2-vCPU campaign response missing the cross-core cell")
	}
}

// TestRetiredParallelFieldIgnored: experiments and campaign bodies from
// an old client that still carries the retired "parallel" opt-in are
// answered 200 with the bytes of the same request without it. The cell
// loop picks its own parallelism, and unknown fields are ignored.
func TestRetiredParallelFieldIgnored(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	for _, tc := range []struct{ path, fields string }{
		{"/v1/experiments", `"ids":["table1","keys"]`},
		{"/v1/campaigns", `"mutations":2,"levels":["none"]`},
	} {
		output := func(body string) string {
			hr, resp := postJSON(t, hs.URL+tc.path, body, nil)
			if hr.StatusCode != http.StatusOK {
				t.Fatalf("POST %s %s = %d (%s), want 200", tc.path, body, hr.StatusCode, resp)
			}
			var out struct {
				Output string `json:"output"`
			}
			if err := json.Unmarshal([]byte(resp), &out); err != nil {
				t.Fatal(err)
			}
			return out.Output
		}
		want := output("{" + tc.fields + "}")
		got := output("{" + tc.fields + `,"parallel":true}`)
		if want == "" || got != want {
			t.Fatalf("POST %s with the retired field rendered:\n%s\nwant:\n%s", tc.path, got, want)
		}
	}
}
