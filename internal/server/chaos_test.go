package server

// Chaos suite (DESIGN.md §13): end-to-end runs under seeded fault
// injection must be byte-identical to quiet runs — faults may cost
// retries, boots and latency, never bytes — and the daemon must
// survive every injected failure. Also the drain three-way race: an
// in-flight async persist, a wedged lease and Drain running at once
// (exercised under -race in CI).

import (
	"context"
	"net/http"
	"testing"
	"time"

	"camouflage/client"
	"camouflage/internal/fault"
	"camouflage/internal/obs"
	"camouflage/internal/store"
)

// chaosCampaign is the request both the quiet and the faulted run
// execute: 2-vCPU machines (the cross-core scenario included), fixed
// seed, sequential for cycle-exactness.
var chaosCampaign = client.CampaignRequest{
	Mutations: 3,
	Seed:      99,
	Levels:    []string{"backward-edge", "full"},
	CPUs:      2,
}

// TestChaosCampaignByteIdentical: a campaign run with store, pool and
// client faults armed — plus an injected in-job panic absorbed before
// it — renders byte-for-byte what the quiet run rendered.
func TestChaosCampaignByteIdentical(t *testing.T) {
	// Quiet baseline through a daemon, on a fresh shared pool (campaigns
	// always run on snapshot.Shared) behind an empty persistent store:
	// every cell key boots, and its snapshot persists.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := withFreshPool(t)
	pool.Store = st
	_, _, c := newTestServer(t, Config{Store: st})
	ctx := context.Background()
	quiet, err := c.RunCampaign(ctx, chaosCampaign)
	if err != nil {
		t.Fatal(err)
	}
	pool.WaitPersist()

	// Chaos run: a restart — fresh daemon and fresh shared pool on the
	// store reopened from the same directory, so every cell key loads
	// from disk with the faults armed. The spec's counts are chosen so
	// every class fires at most as often as its healing layer absorbs:
	// one failed snapshot read (that key falls back to a boot), one
	// failure of that boot (retried), one failed persist of it
	// (counted; the pool stays warm), one reset + one 5xx (client
	// retry, 3 attempts), one stall (latency only), one in-job panic
	// (consumed by the probe request below).
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := withFreshPool(t)
	pool2.Store = st2
	t.Cleanup(pool2.WaitPersist)
	r := withServerFaults(t,
		"seed=42,server.job=1,pool.boot=1,store.read=1,store.persist=1,client.reset=1,client.5xx=1,client.stall=1:10ms")

	_, hs, cc := newTestServer(t, Config{Store: st2})
	cc.Retry.BaseDelay = time.Millisecond
	cc.Retry.MaxDelay = 2 * time.Millisecond

	// Probe: consume the armed in-job panic; the daemon answers 500 and
	// stays up.
	resp, _ := postJSON(t, hs.URL+"/v1/experiments", `{"ids":["keys"]}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic probe = %d, want 500", resp.StatusCode)
	}

	saveFails := obs.CounterTotal(obs.CStoreSaveFail)
	before := pool2.Stats()
	chaos, err := cc.RunCampaign(ctx, chaosCampaign)
	if err != nil {
		t.Fatalf("campaign under chaos: %v", err)
	}
	pool2.WaitPersist()
	if chaos.Output != quiet.Output {
		t.Fatalf("chaos output differs from quiet run:\n--- quiet ---\n%s\n--- chaos ---\n%s",
			quiet.Output, chaos.Output)
	}

	// Every injection point is checked deterministically; one reset and
	// one 5xx were absorbed by retries, the panic by the barrier, the
	// failed read by a fallback boot, that boot's failure by a retry,
	// and its failed persist left its count.
	for _, p := range []fault.Point{fault.ClientReset, fault.Client5xx, fault.ServerJob, fault.StoreRead, fault.PoolBoot, fault.StorePersist} {
		if r.Fired(p) != 1 {
			t.Fatalf("fault %s fired %d times, want 1 (counts: %v)", p, r.Fired(p), r.Counts())
		}
	}
	after := pool2.Stats()
	if boots, loads := after.Boots-before.Boots, after.StoreLoads-before.StoreLoads; boots != 1 || loads != uint64(after.Keys-1) {
		t.Fatalf("restarted campaign: %d boots / %d store loads over %d keys, want 1 fallback boot and a load of every other key",
			boots, loads, after.Keys)
	}
	if got := obs.CounterTotal(obs.CStoreSaveFail) - saveFails; got != 1 {
		t.Fatalf("camouflage_store_save_failures_total moved by %d, want 1 for the failed persist", got)
	}

	// And the daemon is still healthy.
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos = %d", hresp.StatusCode)
	}
}

// TestDrainRacesPersistAndWedgedLease: Drain while (a) the boot's
// async store persist is still in flight — slowed by injection — and
// (b) a lease operation is wedged past the budget. Drain must finish
// within its budget anyway: the wedged lease force-expires, the
// persist is waited out, and the abandoned machine never re-enters the
// pool. Run under -race in CI, this is the three-way interleaving pin.
func TestDrainRacesPersistAndWedgedLease(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := withFreshPool(t)
	pool.Store = st
	s, _, c := newTestServer(t, Config{Store: st})
	ctx := context.Background()

	// The persist sleeps 80ms then fails — still in flight when Drain
	// starts, and a persist *failure* racing drain is the nastier case.
	withServerFaults(t, "store.persist=1:80ms")

	m, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge", Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := s.leases.get(m.ID)
	if !ok {
		t.Fatal("lease not found")
	}
	l.mu.Lock() // wedge: hold the op lock like a long /run would
	unwedged := make(chan struct{})
	go func() {
		<-unwedged
		l.mu.Unlock()
	}()

	before := s.leases.stats()
	dctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_ = s.Drain(dctx)
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("Drain took %v with a wedged lease and in-flight persist", took)
	}

	lst := s.leases.stats()
	if forced := lst.ForceExpired - before.ForceExpired; lst.Active != 0 || forced != 1 {
		t.Fatalf("after drain: %d active / %d force-expired, want 0 active / 1 force-expired", lst.Active, forced)
	}

	close(unwedged)
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		released := l.released
		l.mu.Unlock()
		if released {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged lease never marked released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if idle := pool.Stats().Idle; idle != 0 {
		t.Fatalf("abandoned machine was parked: %d idle after drain", idle)
	}
}
