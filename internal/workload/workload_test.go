package workload

import (
	"context"
	"runtime"
	"testing"

	"camouflage/internal/core"
	"camouflage/internal/kernel"
)

// TestFigure4Shape pins the paper's Figure 4: the JPEG workload sees the
// least overhead, the download the most, and the geometric mean under
// full protection stays below 4 %.
func TestFigure4Shape(t *testing.T) {
	results, err := RunSuite(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel := map[string]map[string]float64{}
	for _, r := range results {
		if rel[r.Workload] == nil {
			rel[r.Workload] = map[string]float64{}
		}
		rel[r.Workload][r.Level] = r.Relative
	}
	jpeg := rel["JPEG resize"]["full"]
	build := rel["package build"]["full"]
	dl := rel["network download"]["full"]
	if !(jpeg < build && build < dl) {
		t.Errorf("overhead ordering violated: jpeg=%.4f build=%.4f download=%.4f", jpeg, build, dl)
	}
	if jpeg > 1.02 {
		t.Errorf("JPEG (user-dominated) overhead %.2f%% too high", (jpeg-1)*100)
	}
	if dl < 1.02 {
		t.Errorf("download (kernel-dominated) overhead %.2f%% too low to be kernel-bound", (dl-1)*100)
	}
	gm := GeoMeanOverhead(results, "full")
	if gm >= 1.04 {
		t.Errorf("geometric mean overhead %.2f%% >= 4%% (§6.1.3)", (gm-1)*100)
	}
	if gm <= 1.0 {
		t.Errorf("geometric mean %.4f <= 1; protection cannot be free", gm)
	}
	// Backward-edge-only must be cheaper than full on every workload.
	for name, m := range rel {
		if m["backward-edge"] > m["full"] {
			t.Errorf("%s: backward-edge (%.4f) costlier than full (%.4f)", name, m["backward-edge"], m["full"])
		}
	}
}

// TestWorkloadsProduceWork sanity-checks the device side effects.
func TestWorkloadsProduceWork(t *testing.T) {
	for _, w := range Suite() {
		r, err := Run(core.KernelOptionsFor(core.LevelNone, core.Options{Seed: seed}), "none", w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Cycles < 100_000 {
			t.Errorf("%s: only %d cycles; workload too small to be meaningful", w.Name, r.Cycles)
		}
	}
}

// TestDownloadDrainsQueue: the download must consume every injected
// packet through the socket receive path before exiting on EOF.
func TestDownloadDrainsQueue(t *testing.T) {
	w := Suite()[2]
	k, err := kernel.New(core.KernelOptionsFor(core.LevelFull, core.Options{Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	w.Setup(k)
	injected := k.Net.QueuedPackets()
	if injected == 0 {
		t.Fatal("setup injected no packets")
	}
	if _, err := k.RunProgram(w.Name, w.Build, nil, 2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if left := k.Net.QueuedPackets(); left != 0 {
		t.Fatalf("%d/%d packets left in the NIC queue", left, injected)
	}
	if k.CPU.PACFailures != 0 {
		t.Fatalf("PAC failures during download: %d", k.CPU.PACFailures)
	}
}

func TestGeoMean(t *testing.T) {
	rs := []Result{
		{Workload: "a", Level: "full", Relative: 1.02},
		{Workload: "b", Level: "full", Relative: 1.08},
	}
	gm := GeoMeanOverhead(rs, "full")
	if gm < 1.049 || gm > 1.051 {
		t.Fatalf("geomean = %f, want ~1.05", gm)
	}
	if GeoMeanOverhead(rs, "missing") != 0 {
		t.Fatal("missing level should give 0")
	}
}

// TestRunSuiteParallelMatchesSequential: the suite with its
// (workload, level) cells fanned out over 4 Ps must produce exactly the
// results of the one-P loop, relative costs included.
func TestRunSuiteParallelMatchesSequential(t *testing.T) {
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
