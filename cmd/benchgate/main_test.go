package main

import (
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"camouflage/internal/benchparse"
)

// atBound loads testdata/bench.txt, in which every row sits exactly at
// its bound, with the baseline armed for this platform.
func atBound(t *testing.T) inputs {
	t.Helper()
	baseline, err := loadTrajectory("testdata/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	baseline.GOOS, baseline.GOARCH = runtime.GOOS, runtime.GOARCH
	ref, err := loadTrajectory("testdata/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	return inputs{run: parseFile(t, "testdata/bench.txt"), baseline: baseline, ref: ref}
}

func parseFile(t *testing.T, path string) []benchparse.Entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run, err := benchparse.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// verdicts evaluates every row over in: row name to pass, unarmed rows
// absent.
func verdicts(in inputs) map[string]bool {
	out := map[string]bool{}
	for _, r := range evaluate(io.Discard, in) {
		out[r.Name] = r.Pass
	}
	return out
}

// edit returns a copy of run with unit set to v on every repeat of name.
func edit(run []benchparse.Entry, name, unit string, v float64) []benchparse.Entry {
	out := make([]benchparse.Entry, len(run))
	for i, e := range run {
		if e.Name == name {
			if unit == "ns/op" {
				e.NsPerOp = v
			} else {
				m := map[string]float64{}
				for k, x := range e.Metrics {
					m[k] = x
				}
				m[unit] = v
				e.Metrics = m
			}
		}
		out[i] = e
	}
	return out
}

// without returns a copy of run with every repeat of name removed.
func without(run []benchparse.Entry, name string) []benchparse.Entry {
	var out []benchparse.Entry
	for _, e := range run {
		if e.Name != name {
			out = append(out, e)
		}
	}
	return out
}

// TestGates holds every row to its bound: at the bound it passes, just
// past it (one benchmark's every repeat moved) it fails, and with that
// benchmark removed it fails as missing input.
func TestGates(t *testing.T) {
	base := atBound(t)
	at := verdicts(base)
	if len(at) != len(gates) {
		t.Fatalf("evaluated %d rows, want all %d", len(at), len(gates))
	}
	for name, pass := range at {
		if !pass {
			t.Errorf("%s fails at its bound", name)
		}
	}

	for _, tc := range []struct {
		row, bench, unit string
		past             float64
	}{
		{"fork-vs-boot", "BenchmarkForkVsBoot/boot+run", "ns/op", 499.9},
		{"host-pointer", "BenchmarkMemFastPath/buspath", "ns/op", 149.9},
		{"warm-start", "BenchmarkWarmStart/boot+run", "ns/op", 199.9},
		{"allocs", "BenchmarkExecThroughput/full/fastpath-2cpu", "allocs/op", 1},
		{"exec-regress/none/fastpath", "BenchmarkExecThroughput/none/fastpath", "ns/op", 105.01},
		{"exec-regress/full/fastpath", "BenchmarkExecThroughput/full/fastpath", "ns/op", 105.01},
		{"exec-regress/none/fastpath-2cpu", "BenchmarkExecThroughput/none/fastpath-2cpu", "ns/op", 105.01},
		{"exec-regress/full/fastpath-2cpu", "BenchmarkExecThroughput/full/fastpath-2cpu", "ns/op", 105.01},
		{"speedup", "BenchmarkExecThroughput/none/fastpath", "ns/op", 105.01},
		{"speedup", "BenchmarkExecThroughput/none/baseline", "ns/op", 1999.9},
		{"obs-overhead", "BenchmarkObsOverhead/scraped", "ns/op", 102.01},
		{"fault-overhead", "BenchmarkFaultOverhead/armed", "ns/op", 102.01},
	} {
		t.Run(tc.row+"/"+tc.bench, func(t *testing.T) {
			if _, ok := at[tc.row]; !ok {
				t.Fatalf("no row %s", tc.row)
			}
			in := base
			in.run = edit(base.run, tc.bench, tc.unit, tc.past)
			if verdicts(in)[tc.row] {
				t.Errorf("passes with %s at %g %s", tc.bench, tc.past, tc.unit)
			}
			in.run = without(base.run, tc.bench)
			if pass, ok := verdicts(in)[tc.row]; pass || !ok {
				t.Errorf("with %s removed: pass=%v evaluated=%v, want a failure", tc.bench, pass, ok)
			}
		})
	}
}

// TestGatesDocuments: a missing -baseline or -speedup-ref fails the rows
// that read it; a baseline from another platform disarms its rows
// without failing them.
func TestGatesDocuments(t *testing.T) {
	regress := []string{
		"exec-regress/none/fastpath", "exec-regress/full/fastpath",
		"exec-regress/none/fastpath-2cpu", "exec-regress/full/fastpath-2cpu",
	}

	in := atBound(t)
	in.baseline = nil
	v := verdicts(in)
	for _, row := range regress {
		if pass, ok := v[row]; pass || !ok {
			t.Errorf("%s without -baseline: pass=%v evaluated=%v, want a failure", row, pass, ok)
		}
	}

	in = atBound(t)
	in.ref = nil
	if pass, ok := verdicts(in)["speedup"]; pass || !ok {
		t.Errorf("speedup without -speedup-ref: pass=%v evaluated=%v, want a failure", pass, ok)
	}

	in = atBound(t)
	in.baseline.GOARCH = "other"
	v = verdicts(in)
	for _, row := range regress {
		if _, ok := v[row]; ok {
			t.Errorf("%s evaluated against another platform's baseline", row)
		}
	}
	if len(v) != len(gates)-len(regress) {
		t.Errorf("evaluated %d rows, want the %d not reading -baseline", len(v), len(gates)-len(regress))
	}
	for row, pass := range v {
		if !pass {
			t.Errorf("%s fails with the baseline disarmed", row)
		}
	}
}

// TestAllocsReadsEveryRepeat: one allocating repeat among five fails the
// allocs row although the median of the repeats reads 0.
func TestAllocsReadsEveryRepeat(t *testing.T) {
	run := parseFile(t, "testdata/one-bad-repeat.txt")
	const name = "BenchmarkExecThroughput/none/fastpath"
	for _, e := range benchparse.Aggregate(run) {
		if e.Name == name && e.Metrics["allocs/op"] != 0 {
			t.Fatalf("median allocs/op = %v; the testdata must hide its bad repeat from the median", e.Metrics["allocs/op"])
		}
	}
	for _, g := range gates {
		if g.name != "allocs" {
			continue
		}
		v, err := g.value(inputs{run: run})
		if err != nil || v != 3 {
			t.Fatalf("allocs = %v, %v; want 3 from the one bad repeat", v, err)
		}
		return
	}
	t.Fatal("no allocs row")
}

// TestCommittedDocumentsLoad: the committed trajectory and reference
// documents load as -baseline and -speedup-ref and carry every
// benchmark the rows read from them.
func TestCommittedDocumentsLoad(t *testing.T) {
	in := atBound(t)
	var err error
	if in.baseline, err = loadTrajectory("../../BENCH_results.json"); err != nil {
		t.Fatal(err)
	}
	if in.ref, err = loadTrajectory("../../BENCH_reference.json"); err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		if _, err := g.value(in); err != nil && !errors.Is(err, errIncomparable) {
			t.Errorf("%s: %v", g.name, err)
		}
	}
}
