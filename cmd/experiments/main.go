// Command experiments regenerates every table and figure of the paper's
// evaluation in one run (or a selected subset by ID).
//
// Usage:
//
//	experiments                — run everything, in paper order
//	experiments fig3 fig4      — run selected experiments
//	experiments -list          — list available experiment IDs
//	experiments -cpus 2        — boot every machine as a 2-vCPU system
//	experiments -remote=URL    — run on a camouflaged daemon instead
//	experiments -store-dir=dir — warm-start from (and persist to) a shared
//	                             snapshot store: repeated runs skip every
//	                             kernel boot the store already holds
//	experiments -cpuprofile=p  — write a pprof CPU profile of the run
//	experiments -trace         — dump the structured run trace (JSON,
//	                             stderr): per-experiment wall times and
//	                             engine counter deltas
//
// With -remote the selection runs inside the daemon's long-lived
// process (sharing its warm pool across every client) and the text
// rendering is byte-identical to a local run — pinned by the server
// tests and the CI server-smoke job.
//
// Experiments run one at a time, in paper order. The cells inside one
// (schemes, suite cells, matrix rows) fan out over the process's Ps;
// GOMAXPROCS=1 runs them in order, as the repo benchmark does. Every
// cell owns an isolated simulated System and results are assembled by
// index, so the tables are byte-identical either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"sync"

	"camouflage"
	"camouflage/client"
	"camouflage/internal/fault"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
	"camouflage/internal/store"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs")
	cpus := flag.Int("cpus", 1,
		"vCPUs per booted machine (1 = pre-SMP-identical output; 2+ boots true SMP systems)")
	remote := flag.String("remote", "",
		"run on a camouflaged daemon at this base URL (e.g. http://127.0.0.1:8344) instead of in-process")
	cpuprofile := flag.String("cpuprofile", "",
		"write a CPU profile of the run to this path (perf-PR workflow; local runs only)")
	trace := flag.Bool("trace", false,
		"dump the structured run trace as JSON to stderr (stdout rendering is unchanged)")
	storeDir := flag.String("store-dir", "",
		"warm-start from a persistent snapshot store at this directory (shared with camouflaged; "+
			"snapshots booted by this run persist for the next one). Local runs only.")
	faults := flag.String("faults", "",
		"deterministic fault injection spec for chaos testing, e.g. "+
			"'seed=42,store.read=1,client.reset=1' (empty disables). With -remote, only the "+
			"client.* points apply in this process; arm the daemon's own -faults for the rest")
	flag.Parse()

	if *faults != "" {
		r, err := fault.ParseSpec(*faults)
		if err != nil {
			log.Fatalf("experiments: -faults: %v", err)
		}
		fault.Install(r)
		fmt.Fprintf(os.Stderr, "experiments: FAULT INJECTION ARMED: %s\n", r)
	}

	if *storeDir != "" && *remote == "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		snapshot.Shared.Store = st
		// Persists are asynchronous; flush them before exit so the next
		// invocation actually starts warm.
		defer snapshot.Shared.WaitPersist()
	}

	// stopProfile flushes the CPU profile; fatal routes every later
	// error through it, because log.Fatal's os.Exit skips defers and
	// would leave the profile file truncated exactly when a run
	// misbehaves — the case a profile is most wanted for.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		var once sync.Once
		stopProfile = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				f.Close()
			})
		}
		defer stopProfile()
	}
	fatal := func(err error) {
		stopProfile()
		log.Fatal(err)
	}

	if *list {
		for _, e := range camouflage.Experiments() {
			fmt.Printf("  %-16s %-45s (%s)\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	// dumpTrace writes a run trace to stderr; stdout carries only the
	// experiment rendering, so parity checks against untraced runs keep
	// passing.
	dumpTrace := func(tr obs.RunTrace) {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tr); err != nil {
			fatal(err)
		}
	}

	if *remote != "" {
		cl := client.New(*remote)
		resp, err := cl.RunExperiments(context.Background(), client.ExperimentsRequest{
			IDs:  flag.Args(),
			CPUs: *cpus,
		})
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.WriteString(resp.Output); err != nil {
			fatal(err)
		}
		if *trace && resp.RunID != "" {
			tr, err := cl.RunTrace(context.Background(), resp.RunID)
			if err != nil {
				fatal(err)
			}
			dumpTrace(*tr)
		}
	} else {
		var run *obs.Run
		if *trace {
			run = obs.BeginRun("experiments", "cmd/experiments")
		}
		_, err := camouflage.RunExperiments(context.Background(), os.Stdout, camouflage.ExperimentOptions{
			IDs: flag.Args(), CPUs: *cpus, Trace: run,
		})
		if err != nil {
			fatal(err)
		}
		if run != nil {
			run.End()
			dumpTrace(run.Trace())
		}
	}
}
