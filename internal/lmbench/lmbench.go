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

	"camouflage/internal/core"
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
					u.Syscall(kernel.SysExecve, kernel.ExecTargetProgID)
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

// seed is the bootloader seed of every Figure 3 machine.
const seed = 1234

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
// machine and returns total consumed cycles. The machine comes from the
// shared snapshot pool: one build+verify+boot per option set, then
// copy-on-write forks/resets — observably identical to a fresh boot
// (pinned by the snapshot determinism tests), so measured latencies are
// unchanged.
func runOnce(opts kernel.Options, b Benchmark, iters uint64) (uint64, error) {
	m, err := snapshot.Shared.Acquire(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		return 0, err
	}
	defer m.Release()
	var target func(u *kernel.UserASM)
	if b.NeedsExecTarget {
		target = func(u *kernel.UserASM) { u.Exit(0) }
	}
	return m.K.RunProgram(b.Name, func(u *kernel.UserASM) { b.Build(u, iters) }, target, 400_000_000)
}

// Measure returns the per-iteration latency of one benchmark on machines
// built with opts, using the two-point slope to cancel fixed costs.
func Measure(opts kernel.Options, level string, b Benchmark) (Result, error) {
	c1, err := runOnce(opts, b, b.Iters)
	if err != nil {
		return Result{}, err
	}
	c2, err := runOnce(opts, b, 2*b.Iters)
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

// RunSuite measures every benchmark under every protection level on
// machines with the given vCPU count (the workloads stay pinned to the
// boot core; secondaries boot, install their keys and idle — the suite
// measures SMP-build kernel paths). Every (benchmark, level) cell runs
// on its own isolated machine (a copy-on-write fork from the warm pool)
// — concurrently over the Ps not already running cells
// (snapshot.ForEach) — and results are assembled in suite order, so the
// output does not depend on the schedule. Once ctx is done no further
// cell starts.
func RunSuite(ctx context.Context, cpus int) ([]Result, error) {
	benches := Suite()
	levels := core.Levels()
	out := make([]Result, len(benches)*len(levels))
	err := snapshot.ForEach(ctx, len(out), func(idx int) error {
		b := benches[idx/len(levels)]
		lv := levels[idx%len(levels)]
		var err error
		out[idx], err = Measure(core.KernelOptionsFor(lv, core.Options{Seed: seed, CPUs: cpus}), lv.String(), b)
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
		if r.Level == core.LevelNone.String() {
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
