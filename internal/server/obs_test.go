package server

// Tests of the observability surface: the /metrics exposition, the
// /v1/stats registry embedding, run traces, and the sole-occupancy
// exactness rule for served experiment stats.

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"camouflage/client"
	"camouflage/internal/core"
	"camouflage/internal/figures"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
)

// requiredFamilies is the coverage floor the metrics-smoke CI job also
// asserts: at least one family per instrumented subsystem.
var requiredFamilies = []string{
	"camouflage_cpu_instructions_retired_total",
	"camouflage_cpu_trace_enters_total",
	"camouflage_mmu_stage2_walks_total",
	"camouflage_mem_cow_materializations_total",
	"camouflage_pac_auths_total",
	"camouflage_snapshot_pool_boots_total",
	"camouflage_snapshot_boot_seconds",
	"camouflage_server_queue_wait_seconds",
	"camouflage_server_requests_total",
	"camouflage_server_queue_depth",
}

// TestMetricsEndpoint runs an experiment, scrapes /metrics twice and
// checks exposition shape, family coverage and monotonicity.
func TestMetricsEndpoint(t *testing.T) {
	_, hs, c := newTestServer(t, Config{})

	if _, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{
		IDs: []string{"keys"},
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	first, err := client.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	byKey := func(samples []client.MetricSample) map[string]float64 {
		m := make(map[string]float64, len(samples))
		for _, s := range samples {
			m[s.Key()] = s.Value
		}
		return m
	}
	fm := byKey(first)
	for _, fam := range requiredFamilies {
		found := false
		for k := range fm {
			if k == fam || strings.HasPrefix(k, fam+"{") || strings.HasPrefix(k, fam+"_bucket") ||
				strings.HasPrefix(k, fam+"_sum") || strings.HasPrefix(k, fam+"_count") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	if fm["camouflage_cpu_instructions_retired_total"] == 0 {
		t.Error("no instructions retired after an experiment run")
	}

	// Second scrape: counters must be monotonic.
	second, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sm := byKey(second)
	for k, v1 := range fm {
		if strings.Contains(k, "_gauge") || strings.Contains(k, "_depth") ||
			strings.Contains(k, "_running") || strings.Contains(k, "_active") ||
			strings.Contains(k, "_idle") {
			continue // gauges may move either way
		}
		if v2, ok := sm[k]; ok && v2 < v1 {
			t.Errorf("%s went backwards: %v -> %v", k, v1, v2)
		}
	}

	// A scrape of the daemon's registry walks a layout fixed at
	// registration: it sorts no histograms and renders no bucket label.
	allocs := testing.AllocsPerRun(20, func() {
		if err := obs.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Errorf("a scrape made %v allocations, want at most 150", allocs)
	}
}

// TestStatsEmbedsMetrics pins the /v1/stats registry embedding.
func TestStatsEmbedsMetrics(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	if _, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{
		IDs: []string{"table1"},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Metrics.Counters) < int(obs.NumCounters) {
		t.Fatalf("stats metrics carry %d counters, want >= %d", len(st.Metrics.Counters), obs.NumCounters)
	}
	if _, ok := st.Metrics.Histograms["camouflage_server_queue_wait_seconds"]; !ok {
		t.Error("queue wait histogram missing from stats embedding")
	}
	if _, ok := st.Metrics.Gauges["camouflage_server_queue_depth"]; !ok {
		t.Error("queue depth gauge missing from stats embedding")
	}
}

// TestStatsCountsAreRegistryCounts: the registry is the one place a
// pool or lease event is counted, so after a lease cycle every count in
// /v1/stats equals the sample of the same event in the registry it
// embeds, although another pool in the process has booted too.
func TestStatsCountsAreRegistryCounts(t *testing.T) {
	opts := core.KernelOptionsFor(core.LevelNone, core.Options{Seed: 64})
	other, err := snapshot.NewPool().Acquire(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	other.Release()

	withFreshPool(t)
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	m, err := c.Lease(ctx, client.MachineRequest{Level: "none", Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Boots == 0 || st.Leases.Issued == 0 || st.Leases.Released == 0 {
		t.Fatalf("stats miss the lease cycle: pool %+v, leases %+v", st.Pool, st.Leases)
	}
	for _, cnt := range []struct {
		name string
		got  uint64
		id   obs.CounterID
	}{
		{"pool.boots", st.Pool.Boots, obs.CPoolBoot},
		{"pool.forks", st.Pool.Forks, obs.CPoolMiss},
		{"pool.reuses", st.Pool.Reuses, obs.CPoolHit},
		{"pool.dropped", st.Pool.Dropped, obs.CPoolDrop},
		{"pool.evicted", st.Pool.Evicted, obs.CPoolEvict},
		{"pool.store_loads", st.Pool.StoreLoads, obs.CStoreHit},
		{"pool.store_persists", st.Pool.StorePersists, obs.CStoreSave},
		{"pool.boot_retries", st.Pool.BootRetries, obs.CBootRetry},
		{"leases.issued", st.Leases.Issued, obs.CLeaseIssued},
		{"leases.released", st.Leases.Released, obs.CLeaseReleased},
		{"leases.expired", st.Leases.Expired, obs.CLeaseExpired},
	} {
		if want := st.Metrics.Counters[cnt.id.SampleName()]; cnt.got != want {
			t.Errorf("%s = %d, registry %s = %d", cnt.name, cnt.got, cnt.id.SampleName(), want)
		}
	}
}

// TestRunTraceEndpoint pins the run-trace lifecycle over the wire: an
// experiments run reports a run_id whose trace carries per-experiment
// phases; unknown IDs 404.
func TestRunTraceEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	resp, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{
		IDs: []string{"table1", "keys"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RunID == "" {
		t.Fatal("experiments response carries no run_id")
	}
	tr, err := c.RunTrace(context.Background(), resp.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Kind != "experiments" {
		t.Fatalf("trace header: %+v", tr)
	}
	names := map[string]bool{}
	for _, e := range tr.Events {
		names[e.Name] = true
	}
	if !names["exp:table1"] || !names["exp:keys"] {
		t.Fatalf("trace events %v missing per-experiment phases", names)
	}

	if _, err := c.RunTrace(context.Background(), "run-999999"); err == nil {
		t.Fatal("unknown run id did not 404")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown run id error: %v", err)
	}

	// Machine runs report traces too.
	m, err := c.Lease(context.Background(), client.MachineRequest{Level: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(context.Background())
	rr, err := m.Run(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rr.RunID == "" {
		t.Fatal("machine run carries no run_id")
	}
	if tr, err := c.RunTrace(context.Background(), rr.RunID); err != nil || tr.Kind != "machine-run" {
		t.Fatalf("machine run trace: %+v, %v", tr, err)
	}
}

// TestServedExactWhenAlone pins the RunStats.Exact rule: an
// experiments request served with no overlapping job keeps exact
// attribution at any GOMAXPROCS. At 4 Ps fig2's scheme cells fan out,
// yet all of them return before the experiment ends, so the served
// work equals the one-P run's.
func TestServedExactWhenAlone(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	run := func(procs int) []figures.RunStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		resp, err := c.RunExperiments(context.Background(), client.ExperimentsRequest{
			IDs: []string{"keys", "fig2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Experiments
	}
	one, four := run(1), run(4)
	if len(one) != 2 || len(four) != 2 {
		t.Fatalf("served %d and %d experiment stats, want 2 each", len(one), len(four))
	}
	for i, s := range one {
		p := four[i]
		if !s.Exact || !p.Exact {
			t.Errorf("%s: sole-occupancy run served Exact=false (1 P %v, 4 Ps %v)", s.ID, s.Exact, p.Exact)
		}
		if s.Instrs == 0 {
			t.Errorf("%s: exact stats carry no instructions", s.ID)
		}
		if s.Instrs != p.Instrs || s.Cycles != p.Cycles {
			t.Errorf("%s: 1 P served %d instrs in %d cycles, 4 Ps %d in %d",
				s.ID, s.Instrs, s.Cycles, p.Instrs, p.Cycles)
		}
	}
}
