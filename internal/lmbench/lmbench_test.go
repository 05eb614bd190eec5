package lmbench

import (
	"context"
	"runtime"
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/kernel"
)

// levelOptions returns the options of a Figure 3 machine at one level.
func levelOptions(l core.ProtectionLevel) kernel.Options {
	return core.KernelOptionsFor(l, core.Options{Seed: seed})
}

// TestNullSyscallOverheadIsDoubleDigit pins §6.1.3: "the performance
// impact at system call level is measurable as double-digit percentual
// overhead".
func TestNullSyscallOverheadIsDoubleDigit(t *testing.T) {
	b := Suite()[0] // null (getppid)
	base, err := Measure(levelOptions(core.LevelNone), "none", b)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Measure(levelOptions(core.LevelFull), "full", b)
	if err != nil {
		t.Fatal(err)
	}
	rel := full.CyclesPerIter / base.CyclesPerIter
	if rel < 1.10 {
		t.Fatalf("null syscall full-protection overhead = %.1f%%, want double-digit", (rel-1)*100)
	}
	if rel > 2.0 {
		t.Fatalf("null syscall overhead = %.1f%%, implausibly high", (rel-1)*100)
	}
}

// TestBackwardEdgeCheaperThanFull: the partial build must always sit
// between baseline and full protection.
func TestBackwardEdgeCheaperThanFull(t *testing.T) {
	for _, b := range Suite()[:3] { // null, read, write: the cheap rows
		base, err := Measure(levelOptions(core.LevelNone), "none", b)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := Measure(levelOptions(core.LevelBackwardEdge), "backward-edge", b)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Measure(levelOptions(core.LevelFull), "full", b)
		if err != nil {
			t.Fatal(err)
		}
		if !(base.CyclesPerIter < bw.CyclesPerIter && bw.CyclesPerIter < full.CyclesPerIter) {
			t.Errorf("%s: ordering violated: none=%.0f bw=%.0f full=%.0f",
				b.Name, base.CyclesPerIter, bw.CyclesPerIter, full.CyclesPerIter)
		}
	}
}

// TestMeasurementDeterministic: identical runs give identical slopes (the
// simulator is deterministic, so error bars are zero by construction).
func TestMeasurementDeterministic(t *testing.T) {
	b := Suite()[0]
	r1, err := Measure(levelOptions(core.LevelFull), "full", b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Measure(levelOptions(core.LevelFull), "full", b)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CyclesPerIter != r2.CyclesPerIter {
		t.Fatalf("non-deterministic measurement: %f vs %f", r1.CyclesPerIter, r2.CyclesPerIter)
	}
}

// TestAllBenchmarksRun smoke-tests every row under full protection.
func TestAllBenchmarksRun(t *testing.T) {
	for _, b := range Suite() {
		r, err := Measure(levelOptions(core.LevelFull), "full", b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if r.CyclesPerIter <= 0 {
			t.Errorf("%s: non-positive latency %f", b.Name, r.CyclesPerIter)
		}
		if r.NsPerIter <= 0 {
			t.Errorf("%s: non-positive ns %f", b.Name, r.NsPerIter)
		}
	}
}

// TestRelative checks the Figure 3 normalisation.
func TestRelative(t *testing.T) {
	results := []Result{
		{Bench: "x", Level: "none", CyclesPerIter: 100},
		{Bench: "x", Level: "full", CyclesPerIter: 130},
	}
	rel := Relative(results)
	if rel["x"]["none"] != 1.0 {
		t.Fatalf("baseline not 1.0: %f", rel["x"]["none"])
	}
	if rel["x"]["full"] != 1.3 {
		t.Fatalf("full = %f, want 1.3", rel["x"]["full"])
	}
}

// TestCompatBuildRunsFullSuite validates §5.5 end to end: the
// backwards-compatible kernel (HINT-form instrumentation on an ARMv8.0
// core) runs every benchmark, and — because the hint forms degrade to
// NOPs but still occupy pipeline slots — costs at least as much as the
// unprotected build but no more than the native v8.3 build.
func TestCompatBuildRunsFullSuite(t *testing.T) {
	for _, b := range Suite() {
		compat := core.KernelOptionsFor(core.LevelBackwardEdge, core.Options{Seed: seed, Compat: true})
		r, err := Measure(compat, "compat", b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if r.CyclesPerIter <= 0 {
			t.Errorf("%s: non-positive compat latency", b.Name)
		}
		base, err := Measure(levelOptions(core.LevelNone), "none", b)
		if err != nil {
			t.Fatal(err)
		}
		if r.CyclesPerIter < base.CyclesPerIter {
			t.Errorf("%s: compat (%.0f) cheaper than baseline (%.0f)",
				b.Name, r.CyclesPerIter, base.CyclesPerIter)
		}
	}
}

// TestRunSuiteParallelMatchesSequential: the suite with its
// (benchmark, level) cells fanned out over 4 Ps must produce exactly the
// results of the one-P loop — every cell is a pure function of its seed
// on an isolated kernel.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice")
	}
	run := func(procs int) ([]Result, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return RunSuite(context.Background(), 1)
	}
	seq, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("cell %d: sequential %+v != parallel %+v", i, seq[i], par[i])
		}
	}
}
