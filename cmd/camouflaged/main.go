// Command camouflaged is the Camouflage simulation service daemon: a
// long-running HTTP/JSON server that owns the process-wide warm pool of
// booted machines and serves experiment runs, differential attack
// campaigns and interactive machine leases (DESIGN.md §8). Because the
// pool lives as long as the process, every configuration pays its
// build+verify+boot exactly once across all requests and all clients —
// the economics one-shot CLI invocations can never reach.
//
// Usage:
//
//	camouflaged                       — serve on :8344
//	camouflaged -addr 127.0.0.1:9000  — serve elsewhere
//	camouflaged -concurrency 8 -queue 64 -max-leases 128
//	camouflaged -store-dir /var/lib/camouflage — persist snapshots across restarts
//	camouflaged -pprof 127.0.0.1:6060 — expose net/http/pprof separately
//
// Endpoints (see README for curl examples):
//
//	GET  /v1/experiments               — experiment registry
//	POST /v1/experiments               — run a figures.All() selection
//	POST /v1/campaigns                 — differential attack campaign
//	POST /v1/machines                  — lease a warm machine
//	GET  /v1/machines/{id}             — registers, UART, fault log
//	POST /v1/machines/{id}/run         — step by instruction budget
//	POST /v1/machines/{id}/reset       — rewind to lease snapshot
//	POST /v1/machines/{id}/release     — hand the machine back
//	GET  /v1/runs/{id}/trace           — structured trace of a recent run
//	GET  /v1/snapshots                 — persisted snapshots (-store-dir)
//	GET  /v1/snapshots/{key}           — one snapshot's header, by key digest
//	DELETE /v1/snapshots/{key}         — delete from the store
//	GET  /v1/stats                     — pool / queue / lease counters
//	                                     plus the full metrics registry
//	GET  /metrics                      — Prometheus text exposition
//
// SIGTERM or SIGINT drains gracefully: in-flight jobs finish within
// -drain-timeout, each lease returns to the pool once its operation in
// flight (always short) ends, idle machines are evicted, then the
// listener closes. A pool key whose every boot fails answers its own
// requests 500 and leaves /readyz and every other key alone.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"camouflage/internal/fault"
	"camouflage/internal/server"
	"camouflage/internal/snapshot"
	"camouflage/internal/store"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	concurrency := flag.Int("concurrency", 4, "jobs running at once")
	maxQueue := flag.Int("queue", 32, "jobs allowed to wait for a slot (503 beyond)")
	maxLeases := flag.Int("max-leases", 64, "machine leases checked out at once")
	leaseIdle := flag.Duration("lease-idle", 10*time.Minute, "idle time before a lease is reaped")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	storeDir := flag.String("store-dir", "",
		"persist booted snapshots in this directory (one file per configuration, verified on load); "+
			"a restart against a populated store serves its first experiment with zero kernel boots")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables). "+
			"Keeps profiling off the API listener so future perf PRs can profile the daemon under load.")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute,
		"run watchdog wall budget: an experiment or campaign running past it is cancelled with 504 (0 disables)")
	faults := flag.String("faults", "",
		"deterministic fault injection spec for chaos testing, e.g. "+
			"'seed=42,store.read=2,pool.boot=every:3,client.stall=1:50ms' (empty disables). "+
			"TESTING ONLY: injected faults fail real requests")
	flag.Parse()

	if *faults != "" {
		r, err := fault.ParseSpec(*faults)
		if err != nil {
			log.Fatalf("camouflaged: -faults: %v", err)
		}
		fault.Install(r)
		log.Printf("camouflaged: FAULT INJECTION ARMED: %s", r)
	}

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers; the API
			// listener below uses its own mux and never exposes them.
			log.Printf("camouflaged: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("camouflaged: pprof listener: %v", err)
			}
		}()
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			log.Fatalf("camouflaged: %v", err)
		}
		snapshot.Shared.Store = st
		log.Printf("camouflaged: snapshot store at %s (%d snapshots)", *storeDir, len(st.List()))
		if rec := st.Recovery(); rec.OrphanTmps > 0 {
			log.Printf("camouflaged: store recovery sweep: %d orphaned tmp files removed", rec.OrphanTmps)
		}
	}
	srv := server.New(server.Config{
		Concurrency: *concurrency,
		MaxQueue:    *maxQueue,
		MaxLeases:   *maxLeases,
		LeaseIdle:   *leaseIdle,
		Store:       st,
		JobTimeout:  *jobTimeout,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("camouflaged: serving on %s (concurrency %d, queue %d)", *addr, *concurrency, *maxQueue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("camouflaged: %v — draining (budget %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("camouflaged: drain incomplete: %v", err)
		}
		// The listener gets its own small budget: a drain that spent its
		// whole allowance waiting for jobs must not leave Shutdown with an
		// already-expired context (the daemon would never close the
		// listener and never exit).
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("camouflaged: shutdown: %v", err)
		}
		st := snapshot.Shared.Stats()
		ls := srv.LeaseStats()
		log.Printf("camouflaged: done (boots %d, forks %d, reuses %d, evicted %d, store loads %d, store persists %d, leases released %d)",
			st.Boots, st.Forks, st.Reuses, st.Evicted, st.StoreLoads, st.StorePersists, ls.Released)
		if r := fault.Active(); r != nil {
			log.Printf("camouflaged: injected faults fired: %v", r.Counts())
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
