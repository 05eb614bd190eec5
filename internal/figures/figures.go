// Package figures regenerates every table and figure of the paper's
// evaluation as text output, and maintains the experiment registry that
// maps each one to the modules that implement it (DESIGN.md §4).
package figures

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/analysis"
	"camouflage/internal/asm"
	"camouflage/internal/attack"
	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/hyp"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/lmbench"
	"camouflage/internal/obs"
	"camouflage/internal/pac"
	"camouflage/internal/snapshot"
	"camouflage/internal/workload"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the index key (e.g. "fig2").
	ID string
	// Title is the display name.
	Title string
	// PaperRef cites the paper location.
	PaperRef string
	// Levels names the protection levels the experiment boots machines
	// under (nil for experiments that need no booted kernel).
	Levels []string
	// Run regenerates the artefact, writing it to w.
	Run func(w io.Writer) error
}

// threeLevels is the Figure 3/4 comparison set.
var threeLevels = []string{"none", "backward-edge", "full"}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "VMSAv8 address ranges", "Table 1", nil, RenderTable1},
		{"table2", "AArch64 pointer layout and PAC field", "Table 2, §5.4", nil, RenderTable2},
		{"keys", "Key switch cost (≈9 cycles per key)", "§6.1.1", nil, RenderKeySwitch},
		{"fig2", "Function call overhead by modifier scheme", "Figure 2", nil, RenderFigure2},
		{"fig3", "lmbench relative latencies", "Figure 3, §6.1.3", threeLevels, RenderFigure3},
		{"fig4", "User-space workload overheads", "Figure 4", threeLevels, RenderFigure4},
		{"cocci", "Coccinelle semantic-search statistics", "§5.3", nil, RenderCoccinelle},
		{"attacks", "Security evaluation matrix", "§6.2",
			[]string{"none", "backward-edge", "full", "full/zero-mod"}, RenderAttacks},
		{"ablation-keys", "Key management: XOM vs EL2 traps", "§4.1 vs §7 (Ferri)",
			[]string{"full"}, RenderKeyAblation},
		{"ablation-replay", "Replay surface census by modifier scheme", "§4.2, §7", nil, RenderReplayCensus},
		{"smp-replay", "Cross-core f_ops replay on a 2-vCPU machine", "§4.2, §6.2.1",
			[]string{"none", "backward-edge", "full", "full/zero-mod"}, RenderSMPReplay},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// parallelMode selects the concurrent execution strategy for the
// measurement functions in this package (and, via the Render functions,
// the lmbench and workload suites): one goroutine per (experiment,
// protection level) or per trial, each on a fully isolated simulated
// System. Results are assembled by index, so renderings are
// byte-identical to sequential runs — which is also why the mode being
// process-wide is harmless when the service daemon runs overlapping
// requests with different modes: either strategy produces the same
// bytes. It is atomic so overlapping RunAllContext calls are race-free.
// RunAll's parallel argument sets it.
var parallelMode atomic.Bool

// IsParallel reports the current execution strategy.
func IsParallel() bool { return parallelMode.Load() }

// cpuMode is the vCPU count the machine-booting experiments target.
// Unlike parallelMode it *changes the rendered bytes* (SMP kernels have
// different cycle counts), so overlapping RunAllWith calls with
// different counts must not interleave: default-count runs share
// cpuMu's read side (cpuMode stays 1 while any of them is active),
// non-default runs hold it exclusively for their whole duration. This
// is what lets the service daemon serve concurrent default requests at
// full concurrency while a cpus=2 request runs alone.
var (
	cpuMu   sync.RWMutex
	cpuMode atomic.Int64
)

// CPUCount returns the vCPU count the current experiment run targets.
func CPUCount() int {
	if n := int(cpuMode.Load()); n > 1 {
		return n
	}
	return 1
}

// withCPUMode runs f under the experiment-wide CPU-count regime.
func withCPUMode(n int, f func() error) error {
	if n <= 1 {
		cpuMu.RLock()
		defer cpuMu.RUnlock()
		return f()
	}
	cpuMu.Lock()
	defer cpuMu.Unlock()
	cpuMode.Store(int64(n))
	defer cpuMode.Store(1)
	return f()
}

// RunStats records one experiment execution: its wall time and the
// simulated work it retired.
type RunStats struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Levels names the protection levels the experiment booted machines
	// under (absent for experiments that need no booted kernel), keeping
	// per-level trajectories comparable across revisions.
	Levels []string `json:"levels,omitempty"`
	WallNs int64    `json:"wall_ns"`
	// Cycles/Instrs are the simulated work retired during the experiment;
	// attribution is exact in sequential runs. In parallel runs the
	// counters include concurrently running experiments, so Exact=false
	// and only WallNs is per-experiment.
	Cycles      uint64  `json:"cycles"`
	Instrs      uint64  `json:"instrs"`
	InstrPerSec float64 `json:"instr_per_sec"`
	Exact       bool    `json:"exact"`
}

// RunAll runs the selected experiments (every registered one when ids is
// empty), writing each rendering to w in registry order framed by
// "==== id ====" headers, and returns per-experiment stats. Sequential
// runs stream each rendering as it completes. With parallel=true,
// experiments execute concurrently into private buffers and are emitted
// in order — byte-for-byte identical to the sequential run.
func RunAll(w io.Writer, ids []string, parallel bool) ([]RunStats, error) {
	return RunAllContext(context.Background(), w, ids, parallel)
}

// RunOptions parameterizes an experiment run beyond the id selection.
type RunOptions struct {
	// IDs selects experiments (nil: all).
	IDs []string
	// Parallel runs experiments (and suite cells) concurrently.
	Parallel bool
	// CPUs is the vCPU count of every machine the experiments boot
	// (0/1: uniprocessor, byte-identical to pre-SMP renderings).
	CPUs int
	// Trace, when non-nil, receives one phase event per completed
	// experiment ("exp:<id>" with its wall time and counter deltas).
	// Tracing is host-side bookkeeping only: it never changes the
	// rendered bytes.
	Trace *obs.Run
}

// RunAllWith is RunAllContext with full options — the entry point the
// service daemon's `cpus` request field flows through.
func RunAllWith(ctx context.Context, w io.Writer, opts RunOptions) ([]RunStats, error) {
	var stats []RunStats
	err := withCPUMode(opts.CPUs, func() error {
		var err error
		stats, err = runAll(ctx, w, opts.IDs, opts.Parallel, opts.Trace)
		return err
	})
	return stats, err
}

// RunAllContext is RunAll with cancellation: the run stops between
// experiments once ctx is done (sequential mode) or skips experiments
// not yet started (parallel mode) and returns ctx.Err(). A cancelled
// run never emits a partial experiment rendering.
func RunAllContext(ctx context.Context, w io.Writer, ids []string, parallel bool) ([]RunStats, error) {
	return RunAllWith(ctx, w, RunOptions{IDs: ids, Parallel: parallel})
}

func runAll(ctx context.Context, w io.Writer, ids []string, parallel bool, trace *obs.Run) ([]RunStats, error) {
	parallelMode.Store(parallel)
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		for _, id := range ids {
			e, ok := Lookup(id)
			if !ok {
				return nil, fmt.Errorf("figures: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}

	stats := make([]RunStats, len(exps))
	emit := func(i int, out []byte) error {
		fmt.Fprintf(w, "==== %s ====\n", exps[i].ID)
		if _, err := w.Write(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	run := func(i int, out io.Writer) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := exps[i]
		c0, r0 := cpu.TotalCounters()
		t0 := time.Now()
		err := e.Run(out)
		wall := time.Since(t0)
		c1, r1 := cpu.TotalCounters()
		stats[i] = RunStats{
			ID: e.ID, Title: e.Title, Levels: e.Levels,
			WallNs: wall.Nanoseconds(),
			Cycles: c1 - c0, Instrs: r1 - r0,
			Exact: !parallel,
		}
		if wall > 0 {
			stats[i].InstrPerSec = float64(r1-r0) / wall.Seconds()
		}
		// Parallel cells record in completion order; their deltas overlap
		// (same caveat as Exact=false).
		trace.Phase("exp:"+e.ID, wall)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		return nil
	}

	if !parallel {
		// Stream: each experiment's rendering is written as soon as it
		// finishes, so partial output survives a failure or interrupt.
		for i := range exps {
			var out bytes.Buffer
			if err := run(i, &out); err != nil {
				return nil, err
			}
			if err := emit(i, out.Bytes()); err != nil {
				return nil, err
			}
		}
		return stats, nil
	}

	outs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(i, &outs[i])
		}(i)
	}
	wg.Wait()
	for i := range exps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := emit(i, outs[i].Bytes()); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// RenderTable1 reproduces Table 1.
func RenderTable1(w io.Writer) error {
	cfg := pac.DefaultConfig
	fmt.Fprintln(w, "TABLE 1: VMSAv8 address ranges (48-bit VA)")
	fmt.Fprintln(w, "  Address range                              Bit 55  Usage")
	rows := []struct {
		hi, lo uint64
		usage  string
	}{
		{0xFFFF_FFFF_FFFF_FFFF, 0xFFFF_0000_0000_0000, "Kernel"},
		{0xFFFE_FFFF_FFFF_FFFF, 0x0001_0000_0000_0000, "Invalid"},
		{0x0000_FFFF_FFFF_FFFF, 0x0000_0000_0000_0000, "User"},
	}
	for _, r := range rows {
		b55 := " "
		switch r.usage {
		case "Kernel":
			b55 = "1"
		case "User":
			b55 = "0"
		}
		fmt.Fprintf(w, "  %#016x - %#016x   %s     %s\n", r.hi, r.lo, b55, r.usage)
		// Verify the model agrees with the table.
		switch r.usage {
		case "Kernel":
			if !cfg.IsKernel(r.hi) || !cfg.IsKernel(r.lo) {
				return fmt.Errorf("model disagrees with Table 1 kernel range")
			}
		case "User":
			if cfg.IsKernel(r.lo) {
				return fmt.Errorf("model disagrees with Table 1 user range")
			}
		case "Invalid":
			if cfg.IsCanonical(r.lo) || cfg.IsCanonical(r.hi&^(0xFF<<56)|0x1<<48) {
				return fmt.Errorf("model disagrees with Table 1 hole")
			}
		}
	}
	return nil
}

// RenderTable2 reproduces Table 2 plus the §5.4 PAC-size computation.
func RenderTable2(w io.Writer) error {
	fmt.Fprintln(w, "TABLE 2: AArch64 pointer layout on Linux (48-bit VA, 4 KiB pages)")
	fmt.Fprintln(w, "  User pointer (x=0, TBI on):   [63:56]=tag [55]=0 [54:48]=PAC [47:12]=page [11:0]=offset")
	fmt.Fprintln(w, "  Kernel pointer (x=1, TBI off):[63:56]=PAC [55]=1 [54:48]=PAC [47:12]=page [11:0]=offset")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  PAC size by configuration (§5.4: 15 bits in the typical case):")
	fmt.Fprintf(w, "  %-8s %-10s %-10s\n", "VA bits", "user PAC", "kernel PAC")
	for _, va := range []int{39, 42, 48, 52} {
		cfg := pac.Config{VABits: va, TBIUser: true}
		_, u := cfg.PACField(false)
		_, k := cfg.PACField(true)
		fmt.Fprintf(w, "  %-8d %-10d %-10d\n", va, u, k)
	}
	cfg := pac.DefaultConfig
	if _, k := cfg.PACField(true); k != 15 {
		return fmt.Errorf("kernel PAC = %d bits, want 15", k)
	}
	return nil
}

// KeySwitchStats is the §6.1.1 measurement.
type KeySwitchStats struct {
	// PerKeyCycles per trial (install+restore averaged over keys).
	PerKeyCycles []float64
	Mean         float64
	Variance     float64
}

// forEach runs f(0), …, f(n-1) — concurrently, one goroutine per index,
// when Parallel is set — via the shared replication scaffold. Callers
// assemble results by index, keeping output independent of schedule.
func forEach(n int, f func(i int) error) error {
	return snapshot.ForEach(n, IsParallel(), f)
}

// MeasureKeySwitch measures the per-key cost of a kernel entry/exit key
// switch over n trials (§6.1.1 uses n = 20). Each trial runs on its own
// isolated CPU; under Parallel the trials run concurrently.
func MeasureKeySwitch(n int) (KeySwitchStats, error) {
	st := KeySwitchStats{PerKeyCycles: make([]float64, n)}
	err := forEach(n, func(trial int) error {
		keys := boot.NewPRNG(uint64(trial) + 100).GenerateKeys()
		a := asm.New()
		a.Label("entry")
		a.BL("key_setter") // kernel entry: install via XOM immediates
		// Kernel exit: restore the three user keys from thread_struct.
		for i, id := range boot.KernelKeys {
			a.I(insn.LDP(insn.X6, insn.X7, insn.X0, int16(16*i)))
			switch id {
			case pac.KeyIA:
				a.I(insn.MSR(insn.APIAKeyLo_EL1, insn.X6))
				a.I(insn.MSR(insn.APIAKeyHi_EL1, insn.X7))
			case pac.KeyIB:
				a.I(insn.MSR(insn.APIBKeyLo_EL1, insn.X6))
				a.I(insn.MSR(insn.APIBKeyHi_EL1, insn.X7))
			default:
				a.I(insn.MSR(insn.APDBKeyLo_EL1, insn.X6))
				a.I(insn.MSR(insn.APDBKeyHi_EL1, insn.X7))
			}
		}
		a.I(insn.HLT(0))
		boot.EmitKeySetter(a, "key_setter", keys, boot.ModeV83)
		img, err := a.Link(map[string]uint64{".text": uint64(pac.KernelBase) | 0x8_0000})
		if err != nil {
			return err
		}
		c := cpu.New(cpu.Features{PAuth: true})
		for _, s := range img.Sections {
			c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
		}
		c.SetSP(1, uint64(pac.KernelBase)|0x10_0000)
		c.X[0] = uint64(pac.KernelBase) | 0x20_0000 // thread_struct keys
		c.PC = img.Symbols["entry"]
		start := c.Cycles
		stop := c.Run(10_000)
		if stop.Kind != cpu.StopHLT {
			return fmt.Errorf("keyswitch trial: %+v", stop)
		}
		// Total minus BL(1) + RET(1) + HLT(1) control overhead, per key,
		// per direction (3 keys × 2 directions).
		total := float64(c.Cycles-start) - 3
		st.PerKeyCycles[trial] = total / float64(2*len(boot.KernelKeys))
		return nil
	})
	if err != nil {
		return KeySwitchStats{}, err
	}
	for _, v := range st.PerKeyCycles {
		st.Mean += v
	}
	st.Mean /= float64(n)
	for _, v := range st.PerKeyCycles {
		st.Variance += (v - st.Mean) * (v - st.Mean)
	}
	st.Variance /= float64(n)
	return st, nil
}

// RenderKeySwitch reproduces the §6.1.1 measurement.
func RenderKeySwitch(w io.Writer) error {
	st, err := MeasureKeySwitch(20)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "KEY MANAGEMENT (§6.1.1): PAuth key switch on kernel entry/exit")
	fmt.Fprintf(w, "  trials: %d, keys per switch: 3 (IB, IA, DB)\n", len(st.PerKeyCycles))
	fmt.Fprintf(w, "  measured: %.2f cycles per key (variance %.3f)\n", st.Mean, st.Variance)
	fmt.Fprintln(w, "  paper:    8.88 cycles per key (variance 0.004)")
	return nil
}

// Fig2Row is one bar of Figure 2.
type Fig2Row struct {
	Scheme        codegen.Scheme
	CyclesPerCall float64
	NsPerCall     float64
}

// MeasureFigure2 measures per-call return-address protection overhead for
// each scheme.
func MeasureFigure2() ([]Fig2Row, error) {
	const iters = 512
	measure := func(s codegen.Scheme) (uint64, error) {
		cfg := &codegen.Config{Scheme: s}
		a := asm.New()
		a.Label("main")
		a.I(insn.MOVZ(insn.X5, iters, 0))
		a.Label("loop")
		a.BL("f")
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))
		cfg.EmitFunc(a, codegen.FuncSpec{Name: "f", ALU: 1})
		img, err := a.Link(map[string]uint64{".text": uint64(pac.KernelBase) | 0x8_0000})
		if err != nil {
			return 0, err
		}
		c := cpu.New(cpu.Features{PAuth: true})
		c.SCTLR = insn.SCTLRPAuthAll
		for _, sec := range img.Sections {
			c.Bus.RAM.WriteBytes(sec.Base, sec.Bytes)
		}
		c.Signer.SetKey(pac.KeyIB, pac.Key{Hi: 1, Lo: 2})
		c.SetSP(1, uint64(pac.KernelBase)|0x10_0000)
		c.PC = img.Symbols["main"]
		start := c.Cycles
		if stop := c.Run(1_000_000); stop.Kind != cpu.StopHLT {
			return 0, fmt.Errorf("fig2 run: %+v", stop)
		}
		return c.Cycles - start, nil
	}
	// One measurement per protection variant, each on an isolated CPU;
	// under Parallel they run concurrently (index 0 is the baseline).
	schemes := []codegen.Scheme{
		codegen.SchemeNone, codegen.SchemeCamouflage,
		codegen.SchemePARTS, codegen.SchemeClangSP,
	}
	totals := make([]uint64, len(schemes))
	err := forEach(len(schemes), func(i int) error {
		t, err := measure(schemes[i])
		totals[i] = t
		return err
	})
	if err != nil {
		return nil, err
	}
	base := totals[0]
	var rows []Fig2Row
	for i, s := range schemes[1:] {
		cyc := float64(totals[i+1]-base) / iters
		rows = append(rows, Fig2Row{
			Scheme:        s,
			CyclesPerCall: cyc,
			NsPerCall:     cyc * 1e9 / float64(cpu.ClockHz),
		})
	}
	return rows, nil
}

// RenderFigure2 reproduces Figure 2 (function call overhead, ns).
func RenderFigure2(w io.Writer) error {
	rows, err := MeasureFigure2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIGURE 2: Function call overhead (ns per call, 1.2 GHz Cortex-A53 model)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %6.2f ns  (%4.1f cycles)  %s\n",
			r.Scheme, r.NsPerCall, r.CyclesPerCall, bar(r.NsPerCall, 2))
	}
	fmt.Fprintln(w, "  (paper ordering: SP/Clang < proposed < PARTS — §6.1.2)")
	return nil
}

// RenderFigure3 reproduces Figure 3 (lmbench relative latencies).
func RenderFigure3(w io.Writer) error {
	results, err := lmbench.RunSuiteCPUs(IsParallel(), CPUCount())
	if err != nil {
		return err
	}
	rel := lmbench.Relative(results)
	abs := map[string]map[string]float64{}
	for _, r := range results {
		if abs[r.Bench] == nil {
			abs[r.Bench] = map[string]float64{}
		}
		abs[r.Bench][r.Level] = r.NsPerIter
	}
	fmt.Fprintln(w, "FIGURE 3: lmbench latencies relative to the unprotected kernel")
	fmt.Fprintf(w, "  %-18s %-10s %-14s %-10s %s\n", "benchmark", "baseline", "backward-edge", "full", "")
	for _, b := range lmbench.Suite() {
		r := rel[b.Name]
		fmt.Fprintf(w, "  %-18s %7.0fns  x%-12.3f x%-9.3f %s\n",
			b.Name, abs[b.Name]["none"], r["backward-edge"], r["full"], bar((r["full"]-1)*100, 2))
	}
	return nil
}

// RenderFigure4 reproduces Figure 4 (user-space workloads).
func RenderFigure4(w io.Writer) error {
	results, err := workload.RunSuiteCPUs(IsParallel(), CPUCount())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIGURE 4: User-space workload cost relative to the unprotected kernel")
	fmt.Fprintf(w, "  %-20s %-14s %-10s\n", "workload", "backward-edge", "full")
	rel := map[string]map[string]float64{}
	for _, r := range results {
		if rel[r.Workload] == nil {
			rel[r.Workload] = map[string]float64{}
		}
		rel[r.Workload][r.Level] = r.Relative
	}
	for _, wl := range workload.Suite() {
		m := rel[wl.Name]
		fmt.Fprintf(w, "  %-20s x%-13.4f x%-9.4f %s\n",
			wl.Name, m["backward-edge"], m["full"], bar((m["full"]-1)*100, 1))
	}
	gm := workload.GeoMeanOverhead(results, "full")
	fmt.Fprintf(w, "  geometric mean (full): +%.2f%%  (paper: < 4%%)\n", (gm-1)*100)
	return nil
}

// RenderCoccinelle reproduces the §5.3 statistics.
func RenderCoccinelle(w io.Writer) error {
	c := analysis.GenerateLinux52Corpus(1)
	s := analysis.SemanticSearch(c)
	fmt.Fprintln(w, "COCCINELLE SEMANTIC SEARCH (§5.3) over the kernel source model:")
	fmt.Fprintf(w, "  function-pointer members assigned at run time: %d (paper: 1285)\n", s.RuntimeFuncPtrMembers)
	fmt.Fprintf(w, "  compound types containing them:                %d (paper: 504)\n", s.TypesWithRuntimeFP)
	fmt.Fprintf(w, "  types with more than one (→ ops tables):       %d (paper: 229)\n", s.TypesWithMultiple)
	rw := analysis.PlanRewrites(c)
	fmt.Fprintf(w, "  planned get/set rewrites: %d (e.g. %s()/%s())\n", len(rw), rw[0].Getter, rw[0].Setter)
	if s != analysis.Linux52Stats {
		return fmt.Errorf("statistics diverge from §5.3")
	}
	return nil
}

// RenderAttacks reproduces the §6.2 security matrix.
func RenderAttacks(w io.Writer) error {
	reports, err := attack.Matrix(CPUCount())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "SECURITY EVALUATION (§6.2): attack outcome by kernel build")
	fmt.Fprintf(w, "  %-26s %-15s %-13s %s\n", "attack", "build", "outcome", "detail")
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].Attack < reports[j].Attack })
	for _, r := range reports {
		fmt.Fprintf(w, "  %-26s %-15s %-13s %s\n", r.Attack, r.Level, r.Outcome, r.Detail)
	}
	bcfg := codegen.ConfigFull()
	bcfg.NumCPUs = CPUCount()
	rep, err := attack.BruteForcePAC(bcfg, "full", 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-26s %-15s halted=%v after %d attempts (threshold %d, §5.4)\n",
		"PAC brute force", "full", rep.Halted, rep.Attempts, rep.Threshold)
	return nil
}

// RenderKeyAblation compares XOM key installation with the Ferri-style
// EL2-trap alternative (§7).
func RenderKeyAblation(w io.Writer) error {
	// XOM path: measured on a real booted kernel (warm-pooled).
	kcfg := codegen.ConfigFull()
	kcfg.NumCPUs = CPUCount()
	opts := kernel.Options{Config: kcfg, Seed: 5}
	m, err := snapshot.Shared.Acquire(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		return err
	}
	defer m.Release()
	k := m.K
	before := k.CPU.Cycles
	if err := k.CallGuest(k.Img.Symbols["key_setter"]); err != nil {
		return err
	}
	xom := k.CPU.Cycles - before - 2 // minus stub blr+hlt

	before = k.CPU.Cycles
	k.Hyp.EscrowKeys(k.KernelKeysForTest())
	if err := k.Hyp.TrapInstallKeys(pac.KeyIB, pac.KeyIA, pac.KeyDB); err != nil {
		return err
	}
	trap := k.CPU.Cycles - before

	fmt.Fprintln(w, "ABLATION: kernel key installation, XOM setter vs EL2 trap (§4.1 vs Ferri et al.)")
	fmt.Fprintf(w, "  XOM key-setter (3 keys):    %4d cycles\n", xom)
	fmt.Fprintf(w, "  EL2 trap install (3 keys):  %4d cycles (trap round trip %d)\n", trap, hyp.TrapCycles)
	fmt.Fprintf(w, "  ratio: %.1fx — traps \"are not intended and optimized for frequent occurrence\" (§7)\n",
		float64(trap)/float64(xom))
	if trap <= xom {
		return fmt.Errorf("ablation inverted: trap (%d) <= XOM (%d)", trap, xom)
	}
	return nil
}

// RenderReplayCensus reproduces the E10 replay-surface comparison.
func RenderReplayCensus(w io.Writer) error {
	const threads, depths, funcs = 16, 32, 16
	fmt.Fprintln(w, "REPLAY SURFACE (§4.2, §7): modifier collisions across sign contexts")
	fmt.Fprintf(w, "  contexts: %d threads x %d depths x %d functions (16 KiB stack stride)\n",
		threads, depths, funcs)
	for _, s := range []pac.ModifierScheme{pac.ModifierClangSP, pac.ModifierPARTS, pac.ModifierCamouflage} {
		r := attack.ReplayCensus(s, threads, depths, funcs)
		fmt.Fprintf(w, "  %-34s %8d colliding pairs\n", s, r.CollidingPairs)
	}
	return nil
}

// RenderSMPReplay runs the cross-core f_ops replay on real 2-vCPU
// machines (or the run's configured count when higher): the SMP
// counterpart of the synthetic ReplayCensus — instead of counting
// modifier collisions, it stages the reuse attack across concurrently
// running cores and reports which builds stop it.
func RenderSMPReplay(w io.Writer) error {
	cpus := CPUCount()
	if cpus < 2 {
		cpus = 2
	}
	levels := attack.Levels()
	reports := make([]attack.Report, len(levels))
	err := forEach(len(levels), func(i int) error {
		cfg := levels[i].Cfg()
		cfg.NumCPUs = cpus
		var err error
		reports[i], err = attack.CrossCoreReplay(cfg, levels[i].Name)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CROSS-CORE REPLAY (§6.2.1 on a %d-vCPU machine): donor on core 0, recipient on core 1\n", cpus)
	fmt.Fprintf(w, "  %-26s %-15s %-13s %s\n", "attack", "build", "outcome", "detail")
	for _, r := range reports {
		fmt.Fprintf(w, "  %-26s %-15s %-13s %s\n", r.Attack, r.Level, r.Outcome, r.Detail)
	}
	fmt.Fprintln(w, "  (kernel PAuth keys are per-boot, not per-core: only the §4.3 address-bound")
	fmt.Fprintln(w, "   modifier — not core isolation — decides whether the transplant authenticates)")
	return nil
}

// bar renders a crude horizontal bar for terminal figures.
func bar(value float64, unitsPerChar float64) string {
	n := int(value / unitsPerChar)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
