package benchparse

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: camouflage
cpu: Some CPU @ 2.00GHz
BenchmarkForkVsBoot/boot+run-8         	       3	 90000000 ns/op
BenchmarkForkVsBoot/fork+run-8         	       3	 10000000 ns/op
BenchmarkForkVsBoot/boot+run-8         	       3	 110000000 ns/op
BenchmarkForkVsBoot/fork+run-8         	       3	 10000000 ns/op
BenchmarkExecThroughput/none/fastpath-8 	       3	     4200 ns/op	  23000000 instr/s
BenchmarkSimulatorMIPS-8                	       3	      311 ns/op	         3.000 instrs
BenchmarkWorkload/qsort/backward-edge-8 	       3	   500000 ns/op	    150000 model_cycles
PASS
ok  	camouflage	12.3s
`

func TestParse(t *testing.T) {
	entries, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("parsed %d entries, want 7", len(entries))
	}
	if entries[0].Name != "BenchmarkForkVsBoot/boot+run" {
		t.Fatalf("name = %q (suffix not stripped?)", entries[0].Name)
	}
	// A dash inside the sub-benchmark path must survive stripping.
	if entries[6].Name != "BenchmarkWorkload/qsort/backward-edge" {
		t.Fatalf("name = %q, want dash preserved", entries[6].Name)
	}
	if entries[4].Metrics["instr/s"] != 23000000 {
		t.Fatalf("custom metric = %v", entries[4].Metrics)
	}
}

func TestNumCPURecorded(t *testing.T) {
	entries, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.NumCPU != 8 {
			t.Fatalf("%s NumCPU = %d, want 8 (from the -8 suffix)", e.Name, e.NumCPU)
		}
	}
	one, err := Parse(strings.NewReader("BenchmarkBoot \t 3\t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].NumCPU != 1 {
		t.Fatalf("suffix-less entry NumCPU = %+v, want 1", one)
	}
	if got := MaxNumCPU(entries); got != 8 {
		t.Fatalf("MaxNumCPU = %d, want 8", got)
	}
}

func TestAggregateMedians(t *testing.T) {
	const dup = `BenchmarkX-4 	 10	 30.0 ns/op	 5.0 instr/s
BenchmarkX-4 	 10	 10.0 ns/op	 1.0 instr/s
BenchmarkX-4 	 10	 100.0 ns/op	 3.0 instr/s
BenchmarkY-4 	 7	 42.0 ns/op
`
	entries, err := Parse(strings.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregate(entries)
	if len(agg) != 2 {
		t.Fatalf("aggregated to %d entries, want 2", len(agg))
	}
	x := agg[0]
	if x.Name != "BenchmarkX" || x.NsPerOp != 30.0 {
		t.Fatalf("X median ns/op = %v, want 30 (middle of 10,30,100)", x.NsPerOp)
	}
	if x.N != 30 {
		t.Fatalf("X N = %d, want 30 (total iterations)", x.N)
	}
	if x.Metrics["instr/s"] != 3.0 {
		t.Fatalf("X median instr/s = %v, want 3", x.Metrics["instr/s"])
	}
	if x.NumCPU != 4 {
		t.Fatalf("X NumCPU = %d, want 4", x.NumCPU)
	}
	if agg[1].Name != "BenchmarkY" || agg[1].NsPerOp != 42.0 {
		t.Fatalf("Y = %+v", agg[1])
	}
	// Even-length group: mean of the middle pair.
	if got := median([]float64{1, 2, 10, 100}); got != 6 {
		t.Fatalf("even median = %v, want 6", got)
	}

	// Aggregation records the fastest repeat alongside the median, and
	// MinNsPerOp surfaces it from both raw and aggregated entries.
	if x.MinNsPerOp != 10.0 {
		t.Fatalf("X min ns/op = %v, want 10", x.MinNsPerOp)
	}
	if m, ok := MinNsPerOp(entries, "BenchmarkX"); !ok || m != 10.0 {
		t.Fatalf("MinNsPerOp(raw) = %v/%v, want 10/true", m, ok)
	}
	if m, ok := MinNsPerOp(agg, "BenchmarkX"); !ok || m != 10.0 {
		t.Fatalf("MinNsPerOp(aggregated) = %v/%v, want 10/true", m, ok)
	}
	// Old-format entries (no MinNsPerOp) fall back to NsPerOp.
	if m, ok := MinNsPerOp([]Entry{{Name: "Z", NsPerOp: 7}}, "Z"); !ok || m != 7 {
		t.Fatalf("MinNsPerOp(old-format) = %v/%v, want 7/true", m, ok)
	}
	if _, ok := MinNsPerOp(agg, "BenchmarkMissing"); ok {
		t.Fatal("MinNsPerOp matched a missing name")
	}
}
