// Package benchparse parses `go test -bench` text output into
// structured entries and aggregates repeated runs (-count=N) — the
// substrate of cmd/benchgate, whose gate table pins the CI performance
// bounds and records throughput trajectories across revisions.
package benchparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	// Name is the benchmark name with the GOMAXPROCS suffix stripped
	// ("BenchmarkForkVsBoot/fork+run", not ".../fork+run-8").
	Name string `json:"name"`
	// N is the iteration count the line reports.
	N int64 `json:"n"`
	// NsPerOp is wall time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// MinNsPerOp is the fastest repeat's ns/op, set by Aggregate (0 on
	// raw parsed entries). CPU-bound microbenchmark noise is additive —
	// interference slows a repeat, never speeds it — so the minimum
	// estimates quiet-machine performance; cross-revision speed
	// comparisons should prefer it over the median, which a bursty
	// neighbour can shift by tens of percent.
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	// NumCPU is the GOMAXPROCS the benchmark ran under, recovered from
	// the -N name suffix (1 when the suffix is absent — go test omits it
	// at GOMAXPROCS=1). This is the bench host's true parallelism, which
	// can differ from the machine later evaluating the output; scaling
	// gates must read it from here, not from runtime.NumCPU.
	NumCPU int `json:"num_cpu"`
	// Metrics holds custom b.ReportMetric values by unit (e.g.
	// "instr/s", "cycles/key").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Parse reads `go test -bench` output, returning one Entry per
// benchmark result line (repeated -count runs yield repeated entries).
// Non-benchmark lines (headers, PASS, ok) are ignored.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name N value unit [value unit ...]
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, ncpu := stripProcSuffix(fields[0])
		e := Entry{Name: name, N: n, NumCPU: ncpu}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchparse: bad value %q in %q", fields[i], line)
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				e.NsPerOp = v
				continue
			}
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
			}
			e.Metrics[unit] = v
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// stripProcSuffix removes the trailing -GOMAXPROCS decoration go test
// appends to benchmark names ("BenchmarkBoot-8" -> "BenchmarkBoot") and
// returns its value (1 when absent: go test omits the suffix at
// GOMAXPROCS=1). Only a purely numeric final dash segment is stripped,
// so sub-benchmark names containing dashes ("fork+run", "backward-edge")
// survive.
func stripProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

// Aggregate collapses duplicate entries — the -count=N repeats of one
// benchmark — into a single entry per name carrying the median of ns/op
// and of every metric (medians resist the skew a noisy-neighbour repeat
// injects, where a mean would drag the whole trajectory). N becomes the
// total iterations across repeats; NumCPU must agree across repeats and
// is carried through. Input order of first appearance is preserved.
func Aggregate(entries []Entry) []Entry {
	byName := make(map[string][]Entry)
	var order []string
	for _, e := range entries {
		if _, seen := byName[e.Name]; !seen {
			order = append(order, e.Name)
		}
		byName[e.Name] = append(byName[e.Name], e)
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		group := byName[name]
		agg := Entry{Name: name, NumCPU: group[0].NumCPU}
		ns := make([]float64, 0, len(group))
		units := make(map[string][]float64)
		for _, e := range group {
			agg.N += e.N
			ns = append(ns, e.NsPerOp)
			for unit, v := range e.Metrics {
				units[unit] = append(units[unit], v)
			}
		}
		agg.NsPerOp = median(ns)
		agg.MinNsPerOp = ns[0]
		for _, v := range ns[1:] {
			if v < agg.MinNsPerOp {
				agg.MinNsPerOp = v
			}
		}
		if len(units) > 0 {
			agg.Metrics = make(map[string]float64, len(units))
			for unit, vs := range units {
				agg.Metrics[unit] = median(vs)
			}
		}
		out = append(out, agg)
	}
	return out
}

// median returns the middle value (mean of the middle pair for even
// lengths) without mutating its argument.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := make([]float64, len(vs))
	copy(s, vs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// MaxNumCPU returns the largest GOMAXPROCS recorded across entries —
// the bench host's parallelism (0 when entries is empty).
func MaxNumCPU(entries []Entry) int {
	maxCPU := 0
	for _, e := range entries {
		if e.NumCPU > maxCPU {
			maxCPU = e.NumCPU
		}
	}
	return maxCPU
}

// MinNsPerOp returns the smallest ns/op recorded across every entry
// named name, honouring an aggregated entry's MinNsPerOp when present
// (raw repeats contribute their NsPerOp directly, and old-format
// documents without the field fall back to their stored ns/op); ok
// reports whether any matched.
func MinNsPerOp(entries []Entry, name string) (min float64, ok bool) {
	for _, e := range entries {
		if e.Name != name {
			continue
		}
		v := e.NsPerOp
		if e.MinNsPerOp > 0 && e.MinNsPerOp < v {
			v = e.MinNsPerOp
		}
		if !ok || v < min {
			min, ok = v, true
		}
	}
	return min, ok
}
