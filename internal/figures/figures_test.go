package figures

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsRun regenerates every registered table and figure and
// checks the embedded invariants (each renderer validates its own shape
// and returns an error on divergence).
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.PaperRef, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig2"); !ok {
		t.Fatal("fig2 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}
}

// TestKeySwitchNineCycles pins E1: mean ≈ 9 cycles/key with ~zero
// variance (paper: 8.88, variance 0.004).
func TestKeySwitchNineCycles(t *testing.T) {
	st, err := MeasureKeySwitch(20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean < 8 || st.Mean > 10 {
		t.Fatalf("per-key cost = %.2f cycles, want ≈9 (§6.1.1)", st.Mean)
	}
	if st.Variance > 0.1 {
		t.Fatalf("variance = %.3f; the deterministic model should be ≈0", st.Variance)
	}
}

// TestFigure2Shape pins E2's ordering and magnitudes.
func TestFigure2Shape(t *testing.T) {
	rows, err := MeasureFigure2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Scheme.String()] = r
	}
	clang := byName["SP (Clang)"]
	camo := byName["Camouflage"]
	parts := byName["PARTS"]
	if !(clang.NsPerCall < camo.NsPerCall && camo.NsPerCall < parts.NsPerCall) {
		t.Fatalf("Figure 2 ordering violated: clang=%.2f camo=%.2f parts=%.2f ns",
			clang.NsPerCall, camo.NsPerCall, parts.NsPerCall)
	}
	// Magnitudes: single-digit to low-double-digit nanoseconds at 1.2 GHz.
	for _, r := range rows {
		if r.NsPerCall < 1 || r.NsPerCall > 30 {
			t.Errorf("%v: %.2f ns/call outside plausible range", r.Scheme, r.NsPerCall)
		}
	}
}

func TestRenderTable1Content(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Kernel", "Invalid", "User"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestRenderTable2Content(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "15") {
		t.Error("Table 2 output missing the 15-bit kernel PAC")
	}
}

// TestParallelRunAllMatchesSequential: the parallel runner must produce
// byte-identical renderings to the sequential one (isolated Systems,
// index-ordered assembly). A cheap subset keeps the test fast; the
// fig3/fig4 suites are pinned by TestRunSuiteParallelMatchesSequential
// in the lmbench and workload packages.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	ids := []string{"table1", "table2", "keys", "fig2", "ablation-replay"}
	var seq, par bytes.Buffer
	seqStats, err := RunAll(&seq, ids, false)
	if err != nil {
		t.Fatal(err)
	}
	defer parallelMode.Store(false)
	parStats, err := RunAll(&par, ids, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel output diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
	if len(seqStats) != len(ids) || len(parStats) != len(ids) {
		t.Fatalf("stats lengths: seq %d, par %d, want %d", len(seqStats), len(parStats), len(ids))
	}
	// Sequential attribution is exact: the key-switch experiment must
	// have retired simulated work.
	for _, s := range seqStats {
		if !s.Exact {
			t.Errorf("%s: sequential stats not marked exact", s.ID)
		}
	}
	for _, s := range parStats {
		if s.Exact {
			t.Errorf("%s: parallel stats wrongly marked exact", s.ID)
		}
	}
	if seqStats[2].ID != "keys" || seqStats[2].Instrs == 0 {
		t.Errorf("key-switch stats: %+v, want nonzero simulated instructions", seqStats[2])
	}
}

// TestRunAllUnknownID rejects unknown experiment ids.
func TestRunAllUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunAll(&buf, []string{"nope"}, false); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestSMPFigureDeterminism pins the acceptance criterion that a 2-vCPU
// System runs the figures suite with byte-identical output across
// repeated runs: fig4 (the workload suite — every cell boots and runs a
// real 2-core machine) is rendered twice at CPUs: 2 and compared
// byte-for-byte.
func TestSMPFigureDeterminism(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		_, err := RunAllWith(context.Background(), &buf, RunOptions{
			IDs: []string{"fig4"}, CPUs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	if second := render(); second != first {
		t.Fatalf("2-vCPU fig4 rendering not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("empty rendering")
	}
}

// TestAttackRenderingsGolden pins the §6.2 renderings byte for byte:
// the attack matrix at 1 and 2 vCPUs and the cross-core replay table.
// Their details carry gadget-execution counts, so any drift in a
// victim, a corruption, a budget or a verdict shows up here.
func TestAttackRenderingsGolden(t *testing.T) {
	for _, c := range []struct {
		id, golden string
		cpus       int
	}{
		{"attacks", "attacks.golden", 1},
		{"attacks", "attacks-2cpu.golden", 2},
		{"smp-replay", "smp-replay.golden", 1},
	} {
		t.Run(c.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := RunAllWith(context.Background(), &buf, RunOptions{
				IDs: []string{c.id}, CPUs: c.cpus,
			}); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("%s drifted from testdata/%s:\n--- got ---\n%s--- want ---\n%s", c.id, c.golden, got, want)
			}
		})
	}
}
