// Command benchgate is the CI bench-trajectory gate: it parses `go test
// -bench` output, evaluates every row of the gates table below, writes a
// machine-readable trajectory document, and exits non-zero when any row
// misses its bound or lacks an input.
//
// Every ns/op ratio compares the MINIMUM across the -count repeats on
// both sides: microbenchmark noise is additive (a bursty neighbour slows
// a repeat, never speeds it), so the minimum estimates quiet-machine
// performance where the median wobbles by tens of percent on a shared
// host, and a burst during one phase of the run cannot move a ratio the
// code didn't change.
//
// Usage:
//
//	go test -run '^$' -bench '...' -count=5 -benchmem . | tee bench.txt
//	benchgate -in bench.txt -json BENCH_results.json \
//	    -baseline baseline.json -speedup-ref BENCH_reference.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"camouflage/internal/benchparse"
)

// gates is the table: every bound CI holds the simulator to, with its
// reason. Each row reads: name, value, and whether the value must be at
// least or at most the bound.
var gates = []gate{
	// DESIGN.md §7: a copy-on-write fork from the warm pool must supply a
	// machine ≥5x cheaper than build+verify+boot (the in-process
	// TestForkAtLeast5xFasterThanBoot pins the same floor).
	{"fork-vs-boot", minRatio("BenchmarkForkVsBoot/boot+run", "BenchmarkForkVsBoot/fork+run"), atLeast, 5},
	// DESIGN.md §2/§3: the host-pointer TLB path on the load/store-heavy
	// loop against the same loop with only host-pointer caching off.
	{"host-pointer", minRatio("BenchmarkMemFastPath/buspath", "BenchmarkMemFastPath/hostptr"), atLeast, 1.5},
	// DESIGN.md §12: a restarted process supplying a batch of machines
	// by one verified store load plus forks must beat rebooting them.
	{"warm-start", minRatio("BenchmarkWarmStart/boot+run", "BenchmarkWarmStart/load+fork+run"), atLeast, 2},
	// The data fast path and block chaining are allocation-free by
	// design, on one vCPU and under the 2-vCPU scheduler alike; the
	// baseline variants deliberately run the seed's allocating paths.
	// Every repeat counts: one allocating repeat is a real allocation.
	{"allocs", maxAllocs(
		"BenchmarkExecThroughput/none/fastpath",
		"BenchmarkExecThroughput/full/fastpath",
		"BenchmarkExecThroughput/none/fastpath-2cpu",
		"BenchmarkExecThroughput/full/fastpath-2cpu",
	), atMost, 0},
	// The same variants' ns/op against the committed BENCH_results.json,
	// armed only on the platform it was measured on (see vsBaseline). That
	// baseline is re-measured with each perf claim, counters included, so
	// these rows also catch instrumentation creeping onto the hot path.
	{"exec-regress/none/fastpath", vsBaseline("BenchmarkExecThroughput/none/fastpath"), atMost, 1.05},
	{"exec-regress/full/fastpath", vsBaseline("BenchmarkExecThroughput/full/fastpath"), atMost, 1.05},
	{"exec-regress/none/fastpath-2cpu", vsBaseline("BenchmarkExecThroughput/none/fastpath-2cpu"), atMost, 1.05},
	{"exec-regress/full/fastpath-2cpu", vsBaseline("BenchmarkExecThroughput/full/fastpath-2cpu"), atMost, 1.05},
	// The superblock pipeline against the pre-superblock reference
	// (BENCH_reference.json). Same-host interleaved A/B put the gain at
	// ~1.25x on this loop; 1.10 is a tripwire (traces that stop fusing
	// measure ~1.0x) with margin for canary error across runner
	// generations.
	{"speedup", canarySpeedup("BenchmarkExecThroughput/none/fastpath", "BenchmarkExecThroughput/none/baseline"), atLeast, 1.10},
	// DESIGN.md §11: scrapes read only the atomic shards, never the
	// per-core cells the hot path bumps, so continuous scraping must be
	// invisible to execution.
	{"obs-overhead", minRatio("BenchmarkObsOverhead/scraped", "BenchmarkObsOverhead/quiet"), atMost, 1.02},
	// DESIGN.md §13: every injection point is one atomic pointer load
	// off the instruction loop, so a registry armed on points execution
	// never reaches must cost the loop nothing.
	{"fault-overhead", minRatio("BenchmarkFaultOverhead/armed", "BenchmarkFaultOverhead/off"), atMost, 1.02},
}

// gate is one row of the table.
type gate struct {
	name   string
	value  func(inputs) (float64, error)
	atMost bool
	bound  float64
}

// The direction a row's bound is met from.
const (
	atLeast = false
	atMost  = true
)

// inputs is what a row's value reads: every raw repeat of this run (not
// the Aggregate medians), and the -baseline and -speedup-ref documents
// (nil when not given or unreadable).
type inputs struct {
	run           []benchparse.Entry
	baseline, ref *trajectory
}

// errIncomparable marks a row that is not armed for this run: it is
// skipped, not failed.
var errIncomparable = errors.New("not comparable")

// minRatio is min(num ns/op) / min(den ns/op) over this run.
func minRatio(num, den string) func(inputs) (float64, error) {
	return func(in inputs) (float64, error) {
		return ratio(in.run, num, in.run, den)
	}
}

// maxAllocs is the largest allocs/op any repeat of any named benchmark
// reports; each must have run with -benchmem.
func maxAllocs(names ...string) func(inputs) (float64, error) {
	return func(in inputs) (float64, error) {
		worst := 0.0
		for _, name := range names {
			seen := false
			for _, e := range in.run {
				if e.Name != name {
					continue
				}
				v, ok := e.Metrics["allocs/op"]
				if !ok {
					return 0, fmt.Errorf("%s has no allocs/op (run go test with -benchmem)", name)
				}
				seen = true
				worst = max(worst, v)
			}
			if !seen {
				return 0, fmt.Errorf("%s missing", name)
			}
		}
		return worst, nil
	}
}

// vsBaseline is min(name ns/op) in this run over the same in -baseline.
// ns/op across OS/architectures is noise, not signal, so the row is
// armed only when the baseline's GOOS/GOARCH match. Toolchain version
// drift deliberately does not disarm it: CI pins go-version "stable",
// so a version key would silently disarm the row on every Go release;
// the 5% budget absorbs normal toolchain movement, and a release that
// genuinely shifts ns/op is when the baseline should be re-measured.
func vsBaseline(name string) func(inputs) (float64, error) {
	return func(in inputs) (float64, error) {
		b := in.baseline
		if b == nil {
			return 0, errors.New("no usable -baseline document")
		}
		if b.GOOS != runtime.GOOS || b.GOARCH != runtime.GOARCH {
			return 0, fmt.Errorf("%w: baseline from %s/%s, this run is %s/%s",
				errIncomparable, b.GOOS, b.GOARCH, runtime.GOOS, runtime.GOARCH)
		}
		return ratio(in.run, name, b.Entries, name)
	}
}

// canarySpeedup is fast's speedup over -speedup-ref with machine-speed
// drift divided out: refFast/curFast × curBase/refBase. The canary is
// the untouched NoBlockCache interpreter, so its drift measures the
// machine, not the pipeline.
func canarySpeedup(fast, canary string) func(inputs) (float64, error) {
	return func(in inputs) (float64, error) {
		if in.ref == nil {
			return 0, errors.New("no usable -speedup-ref document")
		}
		gain, err := ratio(in.ref.Entries, fast, in.run, fast)
		if err != nil {
			return 0, err
		}
		drift, err := ratio(in.run, canary, in.ref.Entries, canary)
		return gain * drift, err
	}
}

// ratio is min(num ns/op) in a over min(den ns/op) in b.
func ratio(a []benchparse.Entry, num string, b []benchparse.Entry, den string) (float64, error) {
	n, okN := benchparse.MinNsPerOp(a, num)
	d, okD := benchparse.MinNsPerOp(b, den)
	switch {
	case !okN || n <= 0:
		return 0, fmt.Errorf("%s missing", num)
	case !okD || d <= 0:
		return 0, fmt.Errorf("%s missing", den)
	}
	return n / d, nil
}

// result is one evaluated row as the trajectory document records it.
type result struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// evaluate runs every row over in, printing one verdict line per row to
// w. A row whose input is missing fails; an unarmed row is left out.
func evaluate(w io.Writer, in inputs) []result {
	var out []result
	for _, g := range gates {
		v, err := g.value(in)
		if errors.Is(err, errIncomparable) {
			fmt.Fprintf(w, "benchgate: skip %s — %v\n", g.name, err)
			continue
		}
		r := result{Name: g.name, Value: v, Bound: g.bound}
		op := ">="
		if g.atMost {
			op = "<="
		}
		switch {
		case err != nil:
			fmt.Fprintf(w, "benchgate: FAIL %s — %v\n", g.name, err)
		case g.atMost && v <= g.bound, !g.atMost && v >= g.bound:
			r.Pass = true
			fmt.Fprintf(w, "benchgate: ok   %s %.3f (%s %g)\n", g.name, v, op, g.bound)
		default:
			fmt.Fprintf(w, "benchgate: FAIL %s %.3f (%s %g)\n", g.name, v, op, g.bound)
		}
		out = append(out, r)
	}
	return out
}

// trajectory is the JSON document the CI job uploads as an artifact and
// commits as BENCH_results.json: runtime metadata so revisions stay
// comparable, the evaluated gates, and the aggregated entries (one
// median entry per benchmark, carrying its fastest repeat).
type trajectory struct {
	GeneratedUnix int64              `json:"generated_unix"`
	GoVersion     string             `json:"go_version"`
	GOOS          string             `json:"goos"`
	GOARCH        string             `json:"goarch"`
	NumCPU        int                `json:"num_cpu"`
	Gates         []result           `json:"gates"`
	Entries       []benchparse.Entry `json:"entries"`
}

// loadTrajectory reads a previous trajectory document.
func loadTrajectory(path string) (*trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(t.Entries) == 0 {
		return nil, fmt.Errorf("%s: no entries", path)
	}
	return &t, nil
}

// loadDoc loads the document a flag names, or returns nil (and says why
// on stderr) so the rows reading it fail as missing input.
func loadDoc(flagName, path string) *trajectory {
	if path == "" {
		return nil
	}
	t, err := loadTrajectory(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: -%s unusable: %v\n", flagName, err)
	}
	return t
}

func readBench(path string) ([]benchparse.Entry, error) {
	if path == "-" {
		return benchparse.Parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchparse.Parse(f)
}

func main() {
	in := flag.String("in", "-", "bench output file (- for stdin)")
	jsonPath := flag.String("json", "BENCH_results.json", "trajectory document to write (empty to skip)")
	baselinePath := flag.String("baseline", "", "committed trajectory document the exec-regress rows compare against")
	refPath := flag.String("speedup-ref", "", "reference trajectory document the speedup row compares against")
	flag.Parse()

	run, err := readBench(*in)
	if err != nil {
		log.Fatal(err)
	}
	results := evaluate(os.Stdout, inputs{
		run:      run,
		baseline: loadDoc("baseline", *baselinePath),
		ref:      loadDoc("speedup-ref", *refPath),
	})

	// The bench host's parallelism comes from the GOMAXPROCS name suffix,
	// not from this process: benchgate may evaluate output produced on a
	// different machine.
	numCPU := benchparse.MaxNumCPU(run)
	if numCPU == 0 {
		numCPU = runtime.NumCPU()
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(trajectory{
			GeneratedUnix: time.Now().Unix(),
			GoVersion:     runtime.Version(),
			GOOS:          runtime.GOOS,
			GOARCH:        runtime.GOARCH,
			NumCPU:        numCPU,
			Gates:         results,
			Entries:       benchparse.Aggregate(run),
		}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: trajectory written to %s\n", *jsonPath)
	}
	for _, r := range results {
		if !r.Pass {
			os.Exit(1)
		}
	}
}
