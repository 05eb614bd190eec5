// Package lmbench reproduces the lmbench micro-benchmark rows of the
// paper's Figure 3: syscall-path latencies measured under three kernel
// builds (no protection, backward-edge CFI only, full protection). Each
// benchmark is a real user program running on the simulated machine; the
// reported latency is the cycle-count slope between two iteration counts,
// which cancels program start-up and tear-down exactly as lmbench's
// timing harness amortises loop overhead.
package lmbench

import (
	"context"
	"fmt"

	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/snapshot"
)

// Benchmark is one lmbench row.
type Benchmark struct {
	// Name matches the lmbench tool naming (lat_syscall null, etc.).
	Name string
	// Iters is the base iteration count.
	Iters uint64
	// Build emits the measured loop for the given iteration count.
	Build func(u *kernel.UserASM, iters uint64)
	// NeedsExecTarget registers the trivial exec-target program.
	NeedsExecTarget bool
}

// openFD emits openat(path) and moves the fd into x20.
func openFD(u *kernel.UserASM, path uint64) {
	u.Syscall(kernel.SysOpenat, 0, path, 0)
	u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
}

// readLoop emits the measured read loop on fd x20.
func readLoop(u *kernel.UserASM, iters, size uint64) {
	u.CounterLoop("bench", insn.X21, iters, func() {
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, kernel.UserDataBase)
		u.MovImm(insn.X2, size)
		u.SyscallReg(kernel.SysRead)
	})
}

// Suite returns the Figure 3 benchmark rows.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:  "null (getppid)",
			Iters: 300,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.SyscallReg(kernel.SysGetppid)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "read /dev/zero",
			Iters: 200,
			Build: func(u *kernel.UserASM, iters uint64) {
				openFD(u, kernel.PathDevZero)
				readLoop(u, iters, 64)
				u.Exit(0)
			},
		},
		{
			Name:  "write /dev/null",
			Iters: 200,
			Build: func(u *kernel.UserASM, iters uint64) {
				openFD(u, kernel.PathDevNull)
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
					u.MovImm(insn.X1, kernel.UserDataBase)
					u.MovImm(insn.X2, 64)
					u.SyscallReg(kernel.SysWrite)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "stat",
			Iters: 200,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.Syscall(kernel.SysFstatat, 0, kernel.PathTmpFile)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "fstat",
			Iters: 200,
			Build: func(u *kernel.UserASM, iters uint64) {
				openFD(u, kernel.PathTmpFile)
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
					u.SyscallReg(kernel.SysFstat)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "open/close",
			Iters: 150,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
					u.SyscallReg(kernel.SysClose)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "select (10 fds)",
			Iters: 150,
			Build: func(u *kernel.UserASM, iters uint64) {
				// Open ten fds, then select over them.
				for i := 0; i < 10; i++ {
					u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
				}
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.Syscall(kernel.SysPselect6, 10)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "sig install",
			Iters: 200,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.A.ADR(insn.X22, "handler")
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.A.I(insn.ORRr(insn.X1, insn.XZR, insn.X22, 0))
					u.SyscallReg(kernel.SysSigaction)
				})
				u.Exit(0)
				u.A.Label("handler")
				u.SyscallReg(kernel.SysSigreturn)
			},
		},
		{
			Name:  "sig handle",
			Iters: 150,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.A.ADR(insn.X1, "handler")
				u.SyscallReg(kernel.SysSigaction)
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.Syscall(kernel.SysKill, 1, 10)
				})
				u.Exit(0)
				u.A.Label("handler")
				u.SyscallReg(kernel.SysSigreturn)
			},
		},
		{
			Name:  "fork+exit",
			Iters: 40,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.SyscallReg(kernel.SysClone)
					u.A.CBNZ(insn.X0, "parent_cont")
					u.Exit(0) // child exits immediately
					u.A.Label("parent_cont")
					// Yield so the child runs to completion (wait(2)).
					u.SyscallReg(kernel.SysSchedYield)
				})
				u.Exit(0)
			},
		},
		{
			Name:            "fork+execve",
			Iters:           30,
			NeedsExecTarget: true,
			Build: func(u *kernel.UserASM, iters uint64) {
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.SyscallReg(kernel.SysClone)
					u.A.CBNZ(insn.X0, "parent_cont")
					u.Syscall(kernel.SysExecve, ExecTargetProgID)
					u.Exit(1) // unreachable
					u.A.Label("parent_cont")
					u.SyscallReg(kernel.SysSchedYield)
				})
				u.Exit(0)
			},
		},
		{
			Name:  "pipe ctxsw",
			Iters: 60,
			Build: func(u *kernel.UserASM, iters uint64) {
				// Two pipes, ping-pong between parent and child: each
				// round trip is two context switches through real
				// cpu_switch_to (§5.2).
				u.Syscall(kernel.SysPipe2, kernel.UserDataBase+0x200) // pipe A
				u.Syscall(kernel.SysPipe2, kernel.UserDataBase+0x210) // pipe B
				u.SyscallReg(kernel.SysClone)
				u.A.CBZ(insn.X0, "child")
				// Parent: write A, read B.
				u.CounterLoop("bench", insn.X21, iters, func() {
					u.MovImm(insn.X9, kernel.UserDataBase+0x200)
					u.A.I(insn.LDR(insn.X0, insn.X9, 8)) // A write end
					u.MovImm(insn.X1, kernel.UserDataBase)
					u.MovImm(insn.X2, 8)
					u.SyscallReg(kernel.SysWrite)
					u.MovImm(insn.X9, kernel.UserDataBase+0x210)
					u.A.I(insn.LDR(insn.X0, insn.X9, 0)) // B read end
					u.MovImm(insn.X1, kernel.UserDataBase+0x20)
					u.MovImm(insn.X2, 8)
					u.SyscallReg(kernel.SysRead)
				})
				u.Exit(0)
				// Child: read A, write B.
				u.A.Label("child")
				u.CounterLoop("childloop", insn.X21, iters, func() {
					u.MovImm(insn.X9, kernel.UserDataBase+0x200)
					u.A.I(insn.LDR(insn.X0, insn.X9, 0))
					u.MovImm(insn.X1, kernel.UserDataBase+0x40)
					u.MovImm(insn.X2, 8)
					u.SyscallReg(kernel.SysRead)
					u.MovImm(insn.X9, kernel.UserDataBase+0x210)
					u.A.I(insn.LDR(insn.X0, insn.X9, 8))
					u.MovImm(insn.X1, kernel.UserDataBase+0x40)
					u.MovImm(insn.X2, 8)
					u.SyscallReg(kernel.SysWrite)
				})
				u.Exit(0)
			},
		},
	}
}

// ExecTargetProgID is the program id the fork+execve benchmark execs.
const ExecTargetProgID = 9

// Result is one measured cell.
type Result struct {
	Bench string
	Level string
	// CyclesPerIter is the slope-based per-iteration latency.
	CyclesPerIter float64
	// NsPerIter converts at the 1.2 GHz model clock.
	NsPerIter float64
}

// runOnce runs a benchmark with the given iteration count on a pristine
// kernel and returns total consumed cycles.
func runOnce(cfg func() *codegen.Config, b Benchmark, iters uint64, seed uint64) (uint64, error) {
	return runOnceOpts(kernel.Options{Config: cfg(), Seed: seed}, b, iters)
}

// runOnceOpts is runOnce with full kernel options (compat builds). The
// machine comes from the shared snapshot pool: one build+verify+boot per
// option set, then copy-on-write forks/resets — observably identical to
// a fresh boot (pinned by the snapshot determinism tests), so measured
// latencies are unchanged.
func runOnceOpts(opts kernel.Options, b Benchmark, iters uint64) (uint64, error) {
	m, err := snapshot.Shared.Acquire(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		return 0, err
	}
	defer m.Release()
	k := m.K
	prog, err := kernel.BuildProgram(b.Name, func(u *kernel.UserASM) {
		b.Build(u, iters)
	})
	if err != nil {
		return 0, err
	}
	k.RegisterProgram(1, prog)
	if b.NeedsExecTarget {
		tgt, err := kernel.BuildProgram("exec-target", func(u *kernel.UserASM) {
			u.Exit(0)
		})
		if err != nil {
			return 0, err
		}
		k.RegisterProgram(ExecTargetProgID, tgt)
	}
	if _, err := k.Spawn(1); err != nil {
		return 0, err
	}
	start := k.CPU.Cycles
	stop := k.Run(400_000_000)
	if stop.Kind != cpu.StopHLT {
		return 0, fmt.Errorf("lmbench %s: no halt: %+v", b.Name, stop)
	}
	return k.CPU.Cycles - start, nil
}

// MeasureOpts measures one benchmark under explicit kernel options (used
// for the §5.5 backwards-compatible build, which needs a v8.0 core).
func MeasureOpts(opts kernel.Options, level string, b Benchmark) (Result, error) {
	c1, err := runOnceOpts(opts, b, b.Iters)
	if err != nil {
		return Result{}, err
	}
	c2, err := runOnceOpts(opts, b, 2*b.Iters)
	if err != nil {
		return Result{}, err
	}
	slope := float64(c2-c1) / float64(b.Iters)
	return Result{
		Bench:         b.Name,
		Level:         level,
		CyclesPerIter: slope,
		NsPerIter:     slope * 1e9 / float64(cpu.ClockHz),
	}, nil
}

// Measure returns the per-iteration latency of one benchmark under one
// build, using the two-point slope to cancel fixed costs.
func Measure(cfg func() *codegen.Config, level string, b Benchmark) (Result, error) {
	c1, err := runOnce(cfg, b, b.Iters, 1234)
	if err != nil {
		return Result{}, err
	}
	c2, err := runOnce(cfg, b, 2*b.Iters, 1234)
	if err != nil {
		return Result{}, err
	}
	slope := float64(c2-c1) / float64(b.Iters)
	return Result{
		Bench:         b.Name,
		Level:         level,
		CyclesPerIter: slope,
		NsPerIter:     slope * 1e9 / float64(cpu.ClockHz),
	}, nil
}

// Levels returns the three Figure 3 protection levels in display order.
func Levels() []struct {
	Name string
	Cfg  func() *codegen.Config
} {
	return []struct {
		Name string
		Cfg  func() *codegen.Config
	}{
		{"none", codegen.ConfigNone},
		{"backward-edge", codegen.ConfigBackward},
		{"full", codegen.ConfigFull},
	}
}

// RunSuite measures every benchmark under every protection level on
// machines with the given vCPU count (the workloads stay pinned to the
// boot core; secondaries boot, install their keys and idle — the suite
// measures SMP-build kernel paths). Every (benchmark, level) cell runs
// on its own isolated machine (a copy-on-write fork from the warm pool)
// — concurrently when parallel is set — and results are assembled in
// suite order, so the output does not depend on the schedule. Once ctx
// is done no further cell starts.
func RunSuite(ctx context.Context, parallel bool, cpus int) ([]Result, error) {
	benches := Suite()
	levels := Levels()
	out := make([]Result, len(benches)*len(levels))
	err := snapshot.ForEach(ctx, len(out), parallel, func(idx int) error {
		b := benches[idx/len(levels)]
		lv := levels[idx%len(levels)]
		var err error
		out[idx], err = Measure(codegen.WithCPUs(lv.Cfg, cpus), lv.Name, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Relative computes Figure 3's relative latencies: for each benchmark,
// the latency of each level divided by the "none" baseline.
func Relative(results []Result) map[string]map[string]float64 {
	base := map[string]float64{}
	for _, r := range results {
		if r.Level == "none" {
			base[r.Bench] = r.CyclesPerIter
		}
	}
	out := map[string]map[string]float64{}
	for _, r := range results {
		if out[r.Bench] == nil {
			out[r.Bench] = map[string]float64{}
		}
		out[r.Bench][r.Level] = r.CyclesPerIter / base[r.Bench]
	}
	return out
}
