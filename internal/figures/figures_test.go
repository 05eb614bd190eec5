package figures

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camouflage/internal/snapshot"
)

// TestAllExperimentsRun regenerates every registered table and figure and
// checks the embedded invariants (each renderer validates its own shape
// and returns an error on divergence).
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf, RunOptions{}); err != nil {
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
// variance (paper: 8.88, variance 0.004). The trial programs are shared
// by every measurement in the process, so four measurements at once get
// equal stats, and a run asking for more trials than there are programs
// is refused.
func TestKeySwitchNineCycles(t *testing.T) {
	st, err := MeasureKeySwitch(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean < 8 || st.Mean > 10 {
		t.Fatalf("per-key cost = %.2f cycles, want ≈9 (§6.1.1)", st.Mean)
	}
	if st.Variance > 0.1 {
		t.Fatalf("variance = %.3f; the deterministic model should be ≈0", st.Variance)
	}

	var wg sync.WaitGroup
	got := make([]KeySwitchStats, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = MeasureKeySwitch(context.Background(), 20)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !reflect.DeepEqual(got[i], st) {
			t.Errorf("concurrent measurement %d = %+v (err %v), want %+v", i, got[i], errs[i], st)
		}
	}

	if _, err := MeasureKeySwitch(context.Background(), keySwitchTrials+1); err == nil {
		t.Errorf("%d trials accepted, want at most %d", keySwitchTrials+1, keySwitchTrials)
	}
}

// TestFigure2Shape pins E2's ordering and magnitudes.
func TestFigure2Shape(t *testing.T) {
	rows, err := MeasureFigure2(context.Background())
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
	if err := RenderTable1(context.Background(), &buf, RunOptions{}); err != nil {
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
	if err := RenderTable2(context.Background(), &buf, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "15") {
		t.Error("Table 2 output missing the 15-bit kernel PAC")
	}
}

// TestParallelRunAllMatchesSequential: a run whose cells fan out over 4
// Ps must render the bytes of the one-P run (isolated Systems,
// index-ordered assembly) and attribute each experiment the same exact
// simulated work: experiments run one at a time, and every cell has
// returned before its experiment ends. Both runs use a fresh pool, so
// each pays the same boots. A cheap subset keeps the test fast; the
// fig3/fig4 suites are pinned by TestRunSuiteParallelMatchesSequential
// in the lmbench and workload packages.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	ids := []string{"table1", "table2", "keys", "fig2", "ablation-keys", "ablation-replay"}
	prev := snapshot.Shared
	t.Cleanup(func() { snapshot.Shared = prev })
	run := func(procs int) (string, []RunStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		snapshot.Shared = snapshot.NewPool()
		var buf bytes.Buffer
		stats, err := RunAllWith(context.Background(), &buf, RunOptions{IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), stats
	}
	seq, seqStats := run(1)
	par, parStats := run(4)
	if seq != par {
		t.Fatalf("4-P output diverges from 1-P:\n--- 1 P ---\n%s\n--- 4 Ps ---\n%s", seq, par)
	}
	if len(seqStats) != len(ids) || len(parStats) != len(ids) {
		t.Fatalf("stats lengths: 1 P %d, 4 Ps %d, want %d", len(seqStats), len(parStats), len(ids))
	}
	for i, s := range seqStats {
		p := parStats[i]
		if !s.Exact || !p.Exact {
			t.Errorf("%s: stats not exact (1 P %v, 4 Ps %v)", s.ID, s.Exact, p.Exact)
		}
		if s.Cycles != p.Cycles || s.Instrs != p.Instrs {
			t.Errorf("%s: 1 P retired %d instrs in %d cycles, 4 Ps %d in %d",
				s.ID, s.Instrs, s.Cycles, p.Instrs, p.Cycles)
		}
	}
	for _, i := range []int{2, 3, 4} { // keys, fig2 and a pool boot
		if seqStats[i].Instrs == 0 {
			t.Errorf("%s stats: %+v, want nonzero simulated instructions", seqStats[i].ID, seqStats[i])
		}
	}
}

// TestExperimentsMatchBenchmarkGolden runs every registry experiment in
// order, one RunAllWith call each, on a fresh warm pool (as the repo
// benchmark's experiments-all pass does) and holds each one's rendering
// digest and simulated work to perfbench/golden/experiments.json. The
// work counts include the boots an experiment pays, so a change that
// moves a boot from one experiment to another fails here even when
// every rendered byte stays the same.
func TestExperimentsMatchBenchmarkGolden(t *testing.T) {
	type experimentGolden struct {
		ID     string `json:"id"`
		SHA256 string `json:"sha256"`
		Cycles uint64 `json:"cycles"`
		Instrs uint64 `json:"instrs"`
	}
	var golden struct {
		SHA256      string             `json:"sha256"`
		Experiments []experimentGolden `json:"experiments"`
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "golden", "experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	prev := snapshot.Shared
	snapshot.Shared = snapshot.NewPool()
	t.Cleanup(func() { snapshot.Shared = prev })

	var got []experimentGolden
	all := sha256.New()
	for _, e := range All() {
		var buf bytes.Buffer
		stats, err := RunAllWith(context.Background(), &buf, RunOptions{IDs: []string{e.ID}})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		all.Write(buf.Bytes())
		sum := sha256.Sum256(buf.Bytes())
		got = append(got, experimentGolden{ID: e.ID, SHA256: hex.EncodeToString(sum[:]),
			Cycles: stats[0].Cycles, Instrs: stats[0].Instrs})
	}
	if !slices.Equal(got, golden.Experiments) {
		t.Errorf("per-experiment work drifted from the benchmark golden:\n got:  %+v\n want: %+v", got, golden.Experiments)
	}
	if digest := hex.EncodeToString(all.Sum(nil)); digest != golden.SHA256 {
		t.Errorf("experiments-all sha256 = %s, golden %s", digest, golden.SHA256)
	}
}

// TestRunAllUnknownID rejects unknown experiment ids.
func TestRunAllUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunAllWith(context.Background(), &buf, RunOptions{IDs: []string{"nope"}}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestCancelStopsRunBetweenCells: a context cancelled while fig3 runs
// reaches fig3's cell loop. The run returns ctx.Err(), writes no
// rendering, and starts no cell after the cancellation — only the cell
// in flight finishes, and an lmbench cell acquires two machines. One P
// keeps the cells in order, so exactly one is in flight.
func TestCancelStopsRunBetweenCells(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prev := snapshot.Shared
	pool := snapshot.NewPool()
	snapshot.Shared = pool
	t.Cleanup(func() { snapshot.Shared = prev })
	// Every Acquire forks or reuses a machine (a boot only arms the
	// key). Forks and reuses are process totals; count from here.
	base := pool.Stats()
	acquired := func() uint64 {
		st := pool.Stats()
		return st.Forks - base.Forks + st.Reuses - base.Reuses
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel uint64
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		for acquired() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
		atCancel = acquired()
	}()
	var buf bytes.Buffer
	_, err := RunAllWith(ctx, &buf, RunOptions{IDs: []string{"fig3"}})
	<-cancelled
	if err != context.Canceled {
		t.Fatalf("cancelled fig3 run returned %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled run wrote a rendering:\n%s", buf.String())
	}
	if got := acquired(); got > atCancel+2 {
		t.Fatalf("cells kept starting after cancellation: %d machines acquired, %d at cancel", got, atCancel)
	}
}

// endsAfter is a context that reads live for its first live Err calls
// and cancelled from then on: a deadline that passes during the work
// that follows the last check.
type endsAfter struct {
	context.Context
	live  int32
	calls atomic.Int32
}

func (c *endsAfter) Err() error {
	if c.calls.Add(1) > c.live {
		return context.Canceled
	}
	return nil
}

// TestLoopEndingAfterItsContextFails: the experiment loop and the
// key-switch trial loop keep snapshot.ForEach's rule that a loop whose
// context ended while its last item ran reports ctx.Err(). Neither
// table1 nor the trials check the context inside, so a run that checked
// it only before each item would succeed here and write the rendering.
func TestLoopEndingAfterItsContextFails(t *testing.T) {
	const trials = 3
	if _, err := MeasureKeySwitch(&endsAfter{Context: context.Background(), live: trials}, trials); err != context.Canceled {
		t.Errorf("key switch cancelled during its last trial returned %v, want context.Canceled", err)
	}
	var buf bytes.Buffer
	_, err := RunAllWith(&endsAfter{Context: context.Background(), live: 1}, &buf, RunOptions{IDs: []string{"table1"}})
	if err != context.Canceled {
		t.Errorf("run cancelled during its last experiment returned %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("run cancelled during its last experiment wrote a rendering:\n%s", buf.String())
	}
}

// TestConcurrentRunsKeepTheirOptions: a 2-vCPU and a uniprocessor run
// overlap in one process, and each renders byte for byte what it renders
// alone. Options are per-run arguments, so neither run waits for the
// other or sees its vCPU count.
func TestConcurrentRunsKeepTheirOptions(t *testing.T) {
	ids := []string{"fig4"}
	render := func(cpus int) string {
		var buf bytes.Buffer
		if _, err := RunAllWith(context.Background(), &buf, RunOptions{IDs: ids, CPUs: cpus}); err != nil {
			t.Error(err)
		}
		return buf.String()
	}
	solo := map[int]string{1: render(1), 2: render(2)}
	if solo[1] == solo[2] {
		t.Fatal("fig4 renders the same at 1 and 2 vCPUs; the test cannot tell the runs apart")
	}
	got := map[int]*string{1: new(string), 2: new(string)}
	var wg sync.WaitGroup
	for cpus, out := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*out = render(cpus)
		}()
	}
	wg.Wait()
	for cpus, out := range got {
		if *out != solo[cpus] {
			t.Errorf("%d-vCPU run changed when overlapped with the other:\n--- solo ---\n%s--- overlapped ---\n%s",
				cpus, solo[cpus], *out)
		}
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
// victim, a corruption, a budget or a verdict shows up here. It also
// pins Figures 3 and 4 at 2 vCPUs, whose cycle counts differ from the
// uniprocessor ones, so a suite that stops building its machines at the
// run's vCPU count fails here (the 1-vCPU renderings are pinned by
// TestExperimentsMatchBenchmarkGolden).
func TestAttackRenderingsGolden(t *testing.T) {
	for _, c := range []struct {
		id, golden string
		cpus       int
	}{
		{"attacks", "attacks.golden", 1},
		{"attacks", "attacks-2cpu.golden", 2},
		{"smp-replay", "smp-replay.golden", 1},
		{"fig3", "fig3-2cpu.golden", 2},
		{"fig4", "fig4-2cpu.golden", 2},
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
