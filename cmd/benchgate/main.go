// Command benchgate is the CI bench-trajectory gate: it parses `go test
// -bench` output, writes a machine-readable trajectory document, and
// fails when a pinned performance floor regresses:
//
//   - the warm pool's fork-vs-boot advantage (DESIGN.md §7 records ≥5x;
//     the same floor TestForkAtLeast5xFasterThanBoot enforces in-process);
//
//   - the execution pipeline's steady-state allocation budget (0
//     allocs/op for the fastpath BenchmarkExecThroughput variants — the
//     data fast path and block chaining are allocation-free by design);
//
//   - the host-pointer advantage on the load/store-heavy
//     BenchmarkMemFastPath (hostptr vs buspath ns/op ratio).
//
//   - the snapshot-store warm-start advantage on BenchmarkWarmStart
//     (-warmstart-floor): supplying a batch of machines by one verified
//     store load plus copy-on-write forks must beat rebooting each of
//     them by the floor's multiple.
//
//   - the ns/op trajectory of the fastpath BenchmarkExecThroughput
//     variants against a committed baseline trajectory (-baseline,
//     -exec-regress): same-machine-class regressions beyond the budget
//     fail the gate.
//
//   - the superblock-pipeline speedup against a committed reference
//     trajectory (-speedup-ref, -speedup-floor): the none/fastpath ns/op
//     must beat the reference by the floor after normalizing by the
//     none/baseline canary — the NoBlockCache interpreter is untouched
//     code, so its drift measures machine speed, not the pipeline. This
//     gate compares the MINIMUM across -count repeats on both sides:
//     microbenchmark noise is additive (a bursty neighbour slows a
//     repeat, never speeds it), so the minimum estimates quiet-machine
//     performance where the median wobbles by tens of percent on a
//     shared host. Every ns/op ratio gate in this command takes minima
//     for the same reason — a burst during one phase of the run must
//     not move a ratio the code didn't change.
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchtime=3x -count=3 -benchmem . | tee bench.txt
//	benchgate -in bench.txt -json BENCH_results.json -floor 5 -memfast-floor 1.5 -max-allocs 0 \
//	    -baseline BENCH_results.json.committed -exec-regress 0.05
//
// The allocation, mem-fast-path and baseline gates apply only when
// their benchmarks appear in the input (with -benchmem for the former)
// and the baseline is readable — but a gate silently not running is how
// regressions slip through CI, so every such self-disable is loud: a
// WARNING locally and, under -require-baseline (the default when the CI
// environment variable is set), a hard failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"camouflage/internal/benchparse"
)

// trajectory is the JSON document the CI job uploads as an artifact:
// raw entries plus the derived ratios the gate checks, with runtime
// metadata so revisions stay comparable.
type trajectory struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`

	// ForkVsBoot is min(boot+run ns/op) / min(fork+run ns/op) across
	// the -count repeats (each side's quietest repeat — see the package
	// comment for why ratios are taken over minima); Floor the gate it
	// must clear.
	ForkVsBoot float64 `json:"fork_vs_boot"`
	Floor      float64 `json:"floor"`

	// MemFastPath is min(buspath ns/op) / min(hostptr ns/op) for
	// BenchmarkMemFastPath (0 when the benchmark was not run);
	// MemFastFloor the gate it must clear.
	MemFastPath  float64 `json:"mem_fast_path,omitempty"`
	MemFastFloor float64 `json:"mem_fast_floor,omitempty"`

	// WarmStart is min(boot+run ns/op) / min(load+fork+run ns/op) for
	// BenchmarkWarmStart — how many times cheaper a batch of machines is
	// when supplied from the persistent snapshot store instead of
	// rebooted (0 when the benchmark was not run); WarmStartFloor the
	// gate it must clear.
	WarmStart      float64 `json:"warm_start,omitempty"`
	WarmStartFloor float64 `json:"warm_start_floor,omitempty"`

	// ExecAllocs is the worst mean allocs/op observed across the
	// fastpath BenchmarkExecThroughput variants (present only when run
	// with -benchmem); MaxAllocs the budget it must stay within.
	ExecAllocs *float64 `json:"exec_allocs_per_op,omitempty"`
	MaxAllocs  float64  `json:"max_allocs,omitempty"`

	// ExecVsBase maps each fastpath ExecThroughput variant to its
	// min-ns/op ratio against the -baseline trajectory (present only
	// when the regression gate ran).
	ExecVsBase map[string]float64 `json:"exec_vs_baseline,omitempty"`

	// SpeedupVsRef is the canary-normalized none/fastpath speedup over
	// the -speedup-ref trajectory; SpeedupFloor the gate it must clear
	// (both 0 when the gate did not run).
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
	SpeedupFloor float64 `json:"speedup_floor,omitempty"`

	// ObsOverhead is the scraped/quiet ns/op ratio of
	// BenchmarkObsOverhead (0 when not run); ObsBudget the -obs-overhead
	// fraction it must stay within.
	ObsOverhead float64 `json:"obs_overhead,omitempty"`
	ObsBudget   float64 `json:"obs_budget,omitempty"`

	// FaultOverhead is the armed/off ns/op ratio of
	// BenchmarkFaultOverhead (0 when not run); FaultBudget the
	// -fault-overhead fraction it must stay within.
	FaultOverhead float64 `json:"fault_overhead,omitempty"`
	FaultBudget   float64 `json:"fault_budget,omitempty"`

	// Entries is the aggregated result set: one median entry per
	// benchmark (the -count repeats collapse via benchparse.Aggregate).
	Entries []benchparse.Entry `json:"entries"`
}

// loadBaseline reads a previous trajectory document.
func loadBaseline(path string) (*trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, err
	}
	if len(t.Entries) == 0 {
		return nil, fmt.Errorf("no entries")
	}
	return &t, nil
}

// execFastpathVariants are the BenchmarkExecThroughput sub-benchmarks
// the allocation and baseline-regression gates cover (the baseline
// variants deliberately run the seed's allocating paths). The 2-vCPU
// variants pin the SMP scheduler: steady state must stay
// allocation-free and on the ns/op trajectory like the uniprocessor
// fast path.
var execFastpathVariants = []string{
	"BenchmarkExecThroughput/none/fastpath",
	"BenchmarkExecThroughput/full/fastpath",
	"BenchmarkExecThroughput/none/fastpath-2cpu",
	"BenchmarkExecThroughput/full/fastpath-2cpu",
}

func main() {
	in := flag.String("in", "-", "bench output file (- for stdin)")
	jsonPath := flag.String("json", "BENCH_results.json", "trajectory document path (empty to disable)")
	floor := flag.Float64("floor", 5.0, "minimum fork-vs-boot advantage")
	memfastFloor := flag.Float64("memfast-floor", 1.5,
		"minimum host-pointer advantage on BenchmarkMemFastPath (0 disables)")
	warmstartFloor := flag.Float64("warmstart-floor", 2.0,
		"minimum store warm-start advantage on BenchmarkWarmStart — boot+run over load+fork+run (0 disables)")
	maxAllocs := flag.Float64("max-allocs", 0,
		"allocs/op budget for the fastpath BenchmarkExecThroughput variants (negative disables)")
	baselinePath := flag.String("baseline", "",
		"previous trajectory document (the committed BENCH_results.json) to regression-check "+
			"the fastpath BenchmarkExecThroughput variants against (empty disables)")
	execRegress := flag.Float64("exec-regress", 0.05,
		"max fractional ns/op regression vs -baseline for the fastpath BenchmarkExecThroughput "+
			"variants (0 disables; only applied when the baseline's go/arch metadata matches this run, "+
			"since cross-machine ns/op is noise, not signal)")
	speedupRef := flag.String("speedup-ref", "",
		"reference trajectory document for the canary-normalized speedup gate: the committed "+
			"pre-optimization BENCH_results.json the superblock pipeline is measured against (empty disables)")
	speedupFloor := flag.Float64("speedup-floor", 0,
		"minimum canary-normalized speedup of BenchmarkExecThroughput/none/fastpath over -speedup-ref "+
			"(0 disables). Normalization divides out machine-speed drift using the untouched "+
			"none/baseline interpreter: ref_fast/cur_fast * cur_base/ref_base")
	obsOverhead := flag.Float64("obs-overhead", 0,
		"max fractional slowdown of BenchmarkObsOverhead/scraped over /quiet (0 disables): the "+
			"observability registry must stay off the hot path even under continuous scraping")
	faultOverhead := flag.Float64("fault-overhead", 0,
		"max fractional slowdown of BenchmarkFaultOverhead/armed over /off (0 disables): fault "+
			"injection points must stay off the instruction loop, armed or not")
	requireBaseline := flag.Bool("require-baseline", os.Getenv("CI") != "",
		"fail hard — instead of warning and passing — when the -baseline document is missing or "+
			"unparseable, or when a gate's benchmarks are absent from the input (the loud self-disable "+
			"paths); defaults to on under a CI environment so a workflow regex typo cannot silently "+
			"turn a gate off behind a green build")
	flag.Parse()

	failed := false
	// disable reports a gate that cannot run for the given reason: a
	// warning locally, a failure under -require-baseline.
	disable := func(format string, args ...any) {
		if *requireBaseline {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL — "+format+" (required by -require-baseline)\n", args...)
			failed = true
			return
		}
		fmt.Fprintf(os.Stderr, "benchgate: WARNING — "+format+"\n", args...)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	parsed, err := benchparse.Parse(r)
	if err != nil {
		log.Fatal(err)
	}
	if len(parsed) == 0 {
		log.Fatal("benchgate: no benchmark results in input")
	}
	// Collapse the -count repeats to one median entry per benchmark: the
	// gates below then compare medians, and the trajectory document
	// carries a single entry per name instead of duplicates.
	entries := benchparse.Aggregate(parsed)
	// The bench host's parallelism comes from the GOMAXPROCS name
	// suffix, not from this process — benchgate may evaluate output
	// produced on a different machine.
	benchCPUs := benchparse.MaxNumCPU(entries)
	if benchCPUs == 0 {
		benchCPUs = runtime.NumCPU()
	}

	// Min-of-repeats throughout the ns/op ratio gates: each side's
	// quietest repeat, so a load burst during one phase of the run
	// cannot squeeze (or inflate) a ratio the code didn't change.
	boot, okBoot := benchparse.MinNsPerOp(entries, "BenchmarkForkVsBoot/boot+run")
	fork, okFork := benchparse.MinNsPerOp(entries, "BenchmarkForkVsBoot/fork+run")
	if !okBoot || !okFork {
		log.Fatal("benchgate: BenchmarkForkVsBoot results missing (run it with -bench)")
	}
	if fork <= 0 {
		log.Fatal("benchgate: fork+run ns/op is zero")
	}
	ratio := boot / fork

	// Host-pointer floor: only gated when BenchmarkMemFastPath ran — but
	// say so loudly, so a CI regex typo that drops the benchmark cannot
	// silently turn the gate off behind a green build.
	var memRatio float64
	bus, okBus := benchparse.MinNsPerOp(entries, "BenchmarkMemFastPath/buspath")
	host, okHost := benchparse.MinNsPerOp(entries, "BenchmarkMemFastPath/hostptr")
	switch {
	case okBus && okHost:
		if host <= 0 {
			log.Fatal("benchgate: hostptr ns/op is zero")
		}
		memRatio = bus / host
	case *memfastFloor > 0:
		disable("BenchmarkMemFastPath results missing; the host-pointer floor is NOT being gated")
	}

	// Store warm-start floor: a restarted process supplying a batch of
	// machines from one verified store load must beat rebooting them.
	// Same loud self-disable discipline as the mem-fast gate.
	var warmRatio float64
	warmBoot, okWarmBoot := benchparse.MinNsPerOp(entries, "BenchmarkWarmStart/boot+run")
	warmLoad, okWarmLoad := benchparse.MinNsPerOp(entries, "BenchmarkWarmStart/load+fork+run")
	switch {
	case okWarmBoot && okWarmLoad:
		if warmLoad <= 0 {
			log.Fatal("benchgate: load+fork+run ns/op is zero")
		}
		warmRatio = warmBoot / warmLoad
	case *warmstartFloor > 0:
		disable("BenchmarkWarmStart results missing; the warm-start floor is NOT being gated")
	}

	// Allocation budget: gated when the fastpath throughput variants ran;
	// they must then carry allocs/op (run go test with -benchmem). As
	// above, absence disables the gate visibly, never silently.
	var execAllocs *float64
	if *maxAllocs >= 0 {
		for _, name := range execFastpathVariants {
			if _, ran := benchparse.MeanNsPerOp(entries, name); !ran {
				disable("%s missing; the allocs/op budget is NOT being gated for it", name)
				continue
			}
			allocs, ok := benchparse.MeanMetric(entries, name, "allocs/op")
			if !ok {
				log.Fatalf("benchgate: %s has no allocs/op (run go test with -benchmem)", name)
			}
			if execAllocs == nil || allocs > *execAllocs {
				execAllocs = &allocs
			}
		}
	}

	// Baseline regression gate: compare the fastpath ExecThroughput
	// variants against the committed trajectory. A missing or
	// unparseable baseline is a loud self-disable — fatal in CI.
	execVsBase := map[string]float64{}
	if *baselinePath != "" && *execRegress > 0 {
		base, err := loadBaseline(*baselinePath)
		switch {
		case err != nil:
			disable("baseline %s unusable (%v); the ExecThroughput regression gate is NOT running", *baselinePath, err)
		case base.GOARCH != runtime.GOARCH || base.GOOS != runtime.GOOS:
			// ns/op across OS/architectures is noise, not signal: compare
			// only like with like, but say so. Toolchain *version* drift
			// deliberately does NOT skip the gate — CI pins go-version
			// "stable", so an exact-version key would silently disarm the
			// gate on every Go release (the self-disable failure mode this
			// flag set exists to kill); the 5% budget absorbs normal
			// toolchain movement, and a release that genuinely shifts
			// ns/op is exactly when the committed baseline should be
			// re-measured.
			fmt.Fprintf(os.Stderr,
				"benchgate: note — baseline from %s/%s, this run is %s/%s; "+
					"skipping the ns/op regression comparison (not comparable)\n",
				base.GOOS, base.GOARCH, runtime.GOOS, runtime.GOARCH)
		default:
			if base.GoVersion != runtime.Version() {
				fmt.Fprintf(os.Stderr,
					"benchgate: note — baseline measured under %s, this run is %s; comparing anyway\n",
					base.GoVersion, runtime.Version())
			}
			for _, name := range execFastpathVariants {
				cur, okCur := benchparse.MinNsPerOp(entries, name)
				prev, okPrev := benchparse.MinNsPerOp(base.Entries, name)
				if !okCur || !okPrev || prev <= 0 {
					disable("%s absent from run or baseline; its regression gate is NOT running", name)
					continue
				}
				ratio := cur / prev
				execVsBase[name] = ratio
				fmt.Printf("benchgate: %s %.1f ns/op vs baseline %.1f (x%.3f, budget x%.3f)\n",
					name, cur, prev, ratio, 1+*execRegress)
				if ratio > 1+*execRegress {
					fmt.Printf("benchgate: FAIL — %s regressed beyond the %.0f%% budget\n", name, *execRegress*100)
					failed = true
				}
			}
		}
	}

	// Canary-normalized speedup gate: the superblock pipeline must beat
	// the committed reference trajectory. Machine-speed drift between
	// the reference host and this one is divided out with the untouched
	// NoBlockCache interpreter (none/baseline) as the canary.
	const (
		fastName = "BenchmarkExecThroughput/none/fastpath"
		baseName = "BenchmarkExecThroughput/none/baseline"
	)
	var speedup float64
	if *speedupRef != "" && *speedupFloor > 0 {
		ref, err := loadBaseline(*speedupRef)
		if err != nil {
			disable("speedup reference %s unusable (%v); the speedup gate is NOT running", *speedupRef, err)
		} else {
			// Minimum of the -count repeats on both sides (see the package
			// comment): an old-format reference without min_ns_per_op falls
			// back to its stored ns/op inside MinNsPerOp.
			curFast, ok1 := benchparse.MinNsPerOp(entries, fastName)
			curBase, ok2 := benchparse.MinNsPerOp(entries, baseName)
			refFast, ok3 := benchparse.MinNsPerOp(ref.Entries, fastName)
			refBase, ok4 := benchparse.MinNsPerOp(ref.Entries, baseName)
			if !ok1 || !ok2 || !ok3 || !ok4 || curFast <= 0 || refBase <= 0 {
				disable("fastpath/baseline pair missing from run or reference; the speedup gate is NOT running")
			} else {
				speedup = refFast / curFast * (curBase / refBase)
				fmt.Printf("benchgate: none/fastpath min %.2f ns/op vs reference %.2f; canary min %.1f vs %.1f → "+
					"normalized speedup %.2fx (floor %.2fx)\n",
					curFast, refFast, curBase, refBase, speedup, *speedupFloor)
				if speedup < *speedupFloor {
					fmt.Printf("benchgate: FAIL — superblock pipeline speedup below the %.2fx floor\n", *speedupFloor)
					failed = true
				}
			}
		}
	}

	// Observability overhead gate: the counter design (per-core plain
	// cells, atomic shards touched only at Run exit) promises scrapes are
	// invisible to execution; hold the A/B benchmark to that promise.
	var obsRatio float64
	if *obsOverhead > 0 {
		quiet, okQuiet := benchparse.MinNsPerOp(entries, "BenchmarkObsOverhead/quiet")
		scraped, okScraped := benchparse.MinNsPerOp(entries, "BenchmarkObsOverhead/scraped")
		switch {
		case !okQuiet || !okScraped || quiet <= 0:
			disable("BenchmarkObsOverhead pair missing; the observability overhead gate is NOT running")
		default:
			obsRatio = scraped / quiet
			fmt.Printf("benchgate: scraped %.2f ns/op vs quiet %.2f (x%.3f, budget x%.3f)\n",
				scraped, quiet, obsRatio, 1+*obsOverhead)
			if obsRatio > 1+*obsOverhead {
				fmt.Printf("benchgate: FAIL — scraping slows execution beyond the %.0f%% budget\n", *obsOverhead*100)
				failed = true
			}
		}
	}

	// Fault-injection overhead gate: every injection point is a nil
	// atomic-pointer check off the hot path; arming a registry on points
	// execution never reaches must not slow execution.
	var faultRatio float64
	if *faultOverhead > 0 {
		off, okOff := benchparse.MinNsPerOp(entries, "BenchmarkFaultOverhead/off")
		armed, okArmed := benchparse.MinNsPerOp(entries, "BenchmarkFaultOverhead/armed")
		switch {
		case !okOff || !okArmed || off <= 0:
			disable("BenchmarkFaultOverhead pair missing; the fault overhead gate is NOT running")
		default:
			faultRatio = armed / off
			fmt.Printf("benchgate: faults armed %.2f ns/op vs off %.2f (x%.3f, budget x%.3f)\n",
				armed, off, faultRatio, 1+*faultOverhead)
			if faultRatio > 1+*faultOverhead {
				fmt.Printf("benchgate: FAIL — an armed fault registry slows execution beyond the %.0f%% budget\n",
					*faultOverhead*100)
				failed = true
			}
		}
	}

	doc := trajectory{
		GeneratedUnix:  time.Now().Unix(),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         benchCPUs,
		ForkVsBoot:     ratio,
		Floor:          *floor,
		MemFastPath:    memRatio,
		MemFastFloor:   *memfastFloor,
		WarmStart:      warmRatio,
		WarmStartFloor: *warmstartFloor,
		ExecAllocs:     execAllocs,
		MaxAllocs:      *maxAllocs,
		ExecVsBase:     execVsBase,
		SpeedupVsRef:   speedup,
		SpeedupFloor:   *speedupFloor,
		ObsOverhead:    obsRatio,
		ObsBudget:      *obsOverhead,
		FaultOverhead:  faultRatio,
		FaultBudget:    *faultOverhead,
		Entries:        entries,
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: trajectory written to %s\n", *jsonPath)
	}

	fmt.Printf("benchgate: fork-vs-boot advantage %.2fx (floor %.1fx)\n", ratio, *floor)
	if ratio < *floor {
		fmt.Printf("benchgate: FAIL — boot+run %.0f ns/op vs fork+run %.0f ns/op\n", boot, fork)
		failed = true
	}
	if memRatio > 0 {
		fmt.Printf("benchgate: host-pointer advantage %.2fx (floor %.1fx)\n", memRatio, *memfastFloor)
		if *memfastFloor > 0 && memRatio < *memfastFloor {
			fmt.Printf("benchgate: FAIL — buspath %.0f ns/op vs hostptr %.0f ns/op\n", bus, host)
			failed = true
		}
	}
	if warmRatio > 0 {
		fmt.Printf("benchgate: store warm-start advantage %.2fx (floor %.1fx)\n", warmRatio, *warmstartFloor)
		if *warmstartFloor > 0 && warmRatio < *warmstartFloor {
			fmt.Printf("benchgate: FAIL — boot+run %.0f ns/op vs load+fork+run %.0f ns/op\n", warmBoot, warmLoad)
			failed = true
		}
	}
	if execAllocs != nil {
		fmt.Printf("benchgate: exec fastpath steady-state allocs/op %.3f (budget %.0f)\n",
			*execAllocs, *maxAllocs)
		if *execAllocs > *maxAllocs {
			fmt.Println("benchgate: FAIL — the fast path must not allocate in steady state")
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
