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
	"time"

	"camouflage/internal/analysis"
	"camouflage/internal/asm"
	"camouflage/internal/attack"
	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/hyp"
	"camouflage/internal/insn"
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
	// Run regenerates the artefact under the run's options, writing it
	// to w. An experiment with cells (trials, schemes, suite cells,
	// matrix rows) starts no further cell once ctx is done and returns
	// ctx.Err() without writing.
	Run func(ctx context.Context, w io.Writer, opts RunOptions) error
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	var suiteLevels, attackLevels []string // Figures 3 and 4; §6.2
	for _, l := range core.Levels() {
		suiteLevels = append(suiteLevels, l.String())
	}
	for _, l := range attack.Levels() {
		attackLevels = append(attackLevels, l.Name)
	}
	return []Experiment{
		{"table1", "VMSAv8 address ranges", "Table 1", nil, RenderTable1},
		{"table2", "AArch64 pointer layout and PAC field", "Table 2, §5.4", nil, RenderTable2},
		{"keys", "Key switch cost (≈9 cycles per key)", "§6.1.1", nil, RenderKeySwitch},
		{"fig2", "Function call overhead by modifier scheme", "Figure 2", nil, RenderFigure2},
		{"fig3", "lmbench relative latencies", "Figure 3, §6.1.3", suiteLevels, RenderFigure3},
		{"fig4", "User-space workload overheads", "Figure 4", suiteLevels, RenderFigure4},
		{"cocci", "Coccinelle semantic-search statistics", "§5.3", nil, RenderCoccinelle},
		{"attacks", "Security evaluation matrix", "§6.2", attackLevels, RenderAttacks},
		{"ablation-keys", "Key management: XOM vs EL2 traps", "§4.1 vs §7 (Ferri)",
			[]string{core.LevelFull.String()}, RenderKeyAblation},
		{"ablation-replay", "Replay surface census by modifier scheme", "§4.2, §7", nil, RenderReplayCensus},
		{"smp-replay", "Cross-core f_ops replay on a 2-vCPU machine", "§4.2, §6.2.1", attackLevels, RenderSMPReplay},
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
	// Cycles/Instrs are the simulated work retired during the experiment,
	// read from the process-wide counters. Experiments run one at a time
	// and every cell has returned before its experiment ends, so the
	// deltas are exact unless other work shared the process; the daemon
	// clears Exact for a job that overlapped another (DESIGN.md §6).
	Cycles      uint64  `json:"cycles"`
	Instrs      uint64  `json:"instrs"`
	InstrPerSec float64 `json:"instr_per_sec"`
	Exact       bool    `json:"exact"`
}

// RunOptions parameterizes an experiment run. Every experiment receives
// the run's options as an argument, so overlapping runs with different
// options in one process (the service daemon's requests) never see each
// other's settings.
type RunOptions struct {
	// IDs selects experiments (nil: all).
	IDs []string
	// CPUs is the vCPU count of every machine the experiments boot
	// (0/1: uniprocessor, byte-identical to pre-SMP renderings).
	CPUs int
	// Trace, when non-nil, receives one phase event per completed
	// experiment ("exp:<id>" with its wall time and counter deltas).
	// Tracing is host-side bookkeeping only: it never changes the
	// rendered bytes.
	Trace *obs.Run
}

// cpus is the vCPU count of the machines the run boots (at least 1).
func (o RunOptions) cpus() int {
	if o.CPUs > 1 {
		return o.CPUs
	}
	return 1
}

// RunAllWith runs the selected experiments (every registered one when
// opts.IDs is empty) one at a time in registry order, writing each
// rendering to w framed by a "==== id ====" header as soon as it
// finishes, and returns per-experiment stats. The cells inside an
// experiment fan out over idle Ps (snapshot.ForEach); the rendering is
// the same either way. Once ctx is done no further experiment or cell
// starts, and the run returns ctx.Err() without writing the interrupted
// experiment; an experiment that ends after ctx is done counts as
// interrupted.
func RunAllWith(ctx context.Context, w io.Writer, opts RunOptions) ([]RunStats, error) {
	var exps []Experiment
	if len(opts.IDs) == 0 {
		exps = All()
	} else {
		for _, id := range opts.IDs {
			e, ok := Lookup(id)
			if !ok {
				return nil, fmt.Errorf("figures: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}

	stats := make([]RunStats, len(exps))
	var buf bytes.Buffer
	for i, e := range exps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		buf.Reset()
		c0, r0 := cpu.TotalCounters()
		t0 := time.Now()
		err := e.Run(ctx, &buf, opts)
		wall := time.Since(t0)
		c1, r1 := cpu.TotalCounters()
		stats[i] = RunStats{
			ID: e.ID, Title: e.Title, Levels: e.Levels,
			WallNs: wall.Nanoseconds(),
			Cycles: c1 - c0, Instrs: r1 - r0,
			Exact: true,
		}
		if wall > 0 {
			stats[i].InstrPerSec = float64(r1-r0) / wall.Seconds()
		}
		opts.Trace.Phase("exp:"+e.ID, wall)
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case err != nil:
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		// Write each rendering as soon as it finishes, so partial output
		// survives a later failure or interrupt.
		if _, err := fmt.Fprintf(w, "==== %s ====\n%s\n", e.ID, buf.Bytes()); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// RenderTable1 reproduces Table 1.
func RenderTable1(_ context.Context, w io.Writer, _ RunOptions) error {
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
func RenderTable2(_ context.Context, w io.Writer, _ RunOptions) error {
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

// keySwitchTrials is the §6.1.1 trial count. Trial i installs the
// kernel keys that PRNG seed 100+i generates.
const keySwitchTrials = 20

// keySwitchImages links the trial programs. Their keys are fixed, so
// they are built once per process and every MeasureKeySwitch shares
// them read-only.
var keySwitchImages = sync.OnceValues(func() ([]*asm.Image, error) {
	imgs := make([]*asm.Image, keySwitchTrials)
	for trial := range imgs {
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
			return nil, err
		}
		imgs[trial] = img
	}
	return imgs, nil
})

// MeasureKeySwitch measures the per-key cost of a kernel entry/exit key
// switch over n trials, at most keySwitchTrials (§6.1.1 uses n = 20).
// The trials run in order on one bare CPU: each copies its program over
// the last, drops the decoded code and runs to HLT. A trial is about 60
// instructions, so building a machine per trial would cost more than
// all of them. Once ctx is done no further trial starts, and a run whose
// context ended during its last trial reports ctx.Err() too, as
// snapshot.ForEach does.
func MeasureKeySwitch(ctx context.Context, n int) (KeySwitchStats, error) {
	imgs, err := keySwitchImages()
	if err != nil {
		return KeySwitchStats{}, err
	}
	if n > len(imgs) {
		return KeySwitchStats{}, fmt.Errorf("keyswitch: %d trials, at most %d", n, len(imgs))
	}
	st := KeySwitchStats{PerKeyCycles: make([]float64, n)}
	c := cpu.New(cpu.Features{PAuth: true})
	for trial, img := range imgs[:n] {
		if err := ctx.Err(); err != nil {
			return KeySwitchStats{}, err
		}
		for _, s := range img.Sections {
			c.Bus.RAM.WriteBytes(s.Base, s.Bytes)
		}
		c.InvalidateDecode() // the host wrote the code behind the CPU's back
		c.SetSP(1, uint64(pac.KernelBase)|0x10_0000)
		c.X[0] = uint64(pac.KernelBase) | 0x20_0000 // thread_struct keys
		c.PC = img.Symbols["entry"]
		start := c.Cycles
		stop := c.Run(10_000)
		if stop.Kind != cpu.StopHLT {
			return KeySwitchStats{}, fmt.Errorf("keyswitch trial: %+v", stop)
		}
		// Total minus BL(1) + RET(1) + HLT(1) control overhead, per key,
		// per direction (3 keys × 2 directions).
		total := float64(c.Cycles-start) - 3
		st.PerKeyCycles[trial] = total / float64(2*len(boot.KernelKeys))
	}
	if err := ctx.Err(); err != nil {
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
func RenderKeySwitch(ctx context.Context, w io.Writer, _ RunOptions) error {
	st, err := MeasureKeySwitch(ctx, keySwitchTrials)
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
func MeasureFigure2(ctx context.Context) ([]Fig2Row, error) {
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
	// One measurement per protection variant, each on an isolated CPU
	// (index 0 is the baseline).
	schemes := []codegen.Scheme{
		codegen.SchemeNone, codegen.SchemeCamouflage,
		codegen.SchemePARTS, codegen.SchemeClangSP,
	}
	totals := make([]uint64, len(schemes))
	err := snapshot.ForEach(ctx, len(schemes), func(i int) error {
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
func RenderFigure2(ctx context.Context, w io.Writer, _ RunOptions) error {
	rows, err := MeasureFigure2(ctx)
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
func RenderFigure3(ctx context.Context, w io.Writer, opts RunOptions) error {
	results, err := lmbench.RunSuite(ctx, opts.cpus())
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
func RenderFigure4(ctx context.Context, w io.Writer, opts RunOptions) error {
	results, err := workload.RunSuite(ctx, opts.cpus())
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
func RenderCoccinelle(_ context.Context, w io.Writer, _ RunOptions) error {
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
func RenderAttacks(ctx context.Context, w io.Writer, opts RunOptions) error {
	reports, err := attack.Matrix(ctx, opts.cpus())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "SECURITY EVALUATION (§6.2): attack outcome by kernel build")
	fmt.Fprintf(w, "  %-26s %-15s %-13s %s\n", "attack", "build", "outcome", "detail")
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].Attack < reports[j].Attack })
	for _, r := range reports {
		fmt.Fprintf(w, "  %-26s %-15s %-13s %s\n", r.Attack, r.Level, r.Outcome, r.Detail)
	}
	rep, err := attack.BruteForcePAC(attack.LevelOf(core.LevelFull), opts.cpus(), 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-26s %-15s halted=%v after %d attempts (threshold %d, §5.4)\n",
		"PAC brute force", "full", rep.Halted, rep.Attempts, rep.Threshold)
	return nil
}

// RenderKeyAblation compares XOM key installation with the Ferri-style
// EL2-trap alternative (§7).
func RenderKeyAblation(_ context.Context, w io.Writer, opts RunOptions) error {
	// XOM path: measured on a real booted kernel (warm-pooled).
	kopts := core.KernelOptionsFor(core.LevelFull, core.Options{Seed: 5, CPUs: opts.cpus()})
	m, err := snapshot.Shared.Acquire(snapshot.KeyFor(kopts), snapshot.BootOptions(kopts))
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
func RenderReplayCensus(_ context.Context, w io.Writer, _ RunOptions) error {
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
func RenderSMPReplay(ctx context.Context, w io.Writer, opts RunOptions) error {
	cpus := max(opts.cpus(), 2)
	levels := attack.Levels()
	reports := make([]attack.Report, len(levels))
	err := snapshot.ForEach(ctx, len(levels), func(i int) error {
		var err error
		reports[i], err = attack.CrossCoreReplay(levels[i], cpus)
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
