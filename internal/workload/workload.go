// Package workload reproduces the user-space workloads of the paper's
// Figure 4: 1) a JPEG picture resize (predominantly user computation),
// 2) a Debian package build (balanced user/kernel), and 3) a network
// download (mostly kernel). The paper's observation is that the kernel CFI
// overhead is attenuated by the user:kernel cycle ratio, with a geometric
// mean below 4 % under full protection.
//
// Each workload is a complete user program on the simulated machine with
// the corresponding instruction mix; the kernel side goes through the real
// instrumented syscall paths.
package workload

import (
	"context"
	"math"

	"camouflage/internal/core"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/snapshot"
)

// Workload is one Figure 4 bar group.
type Workload struct {
	// Name matches the paper's caption.
	Name string
	// Build emits the user program.
	Build func(u *kernel.UserASM)
	// Setup prepares host-side devices (packets, disk sectors).
	Setup func(k *kernel.Kernel)
	// NeedsExecTarget registers the compiler-stand-in program.
	NeedsExecTarget bool
}

// seed is the bootloader seed of every Figure 4 machine.
const seed = 99

// computeLoop emits a multiply-accumulate loop over user memory: the
// "user computation" component.
func computeLoop(u *kernel.UserASM, label string, iters uint64) {
	u.MovImm(insn.X4, kernel.UserDataBase)
	u.MovImm(insn.X5, iters)
	u.A.Label(label)
	u.A.I(insn.LDR(insn.X6, insn.X4, 0))
	u.A.I(insn.MADD(insn.X7, insn.X6, insn.X5, insn.X7))
	u.A.I(insn.EORr(insn.X7, insn.X7, insn.X5))
	u.A.I(insn.ADDr(insn.X7, insn.X7, insn.X6))
	u.A.I(insn.STR(insn.X7, insn.X4, 8))
	u.A.I(insn.SUBi(insn.X5, insn.X5, 1))
	u.A.CBNZ(insn.X5, label)
}

// Suite returns the three Figure 4 workloads.
func Suite() []Workload {
	return []Workload{
		{
			// JPEG resize: long filter kernels over pixel rows, with a
			// handful of reads to page the image in.
			Name: "JPEG resize",
			Build: func(u *kernel.UserASM) {
				u.Syscall(kernel.SysOpenat, 0, kernel.PathTmpFile, 0)
				u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
				// 24 rows: read one row, then heavy resampling compute.
				u.CounterLoop("rows", insn.X22, 24, func() {
					u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
					u.MovImm(insn.X1, kernel.UserDataBase)
					u.MovImm(insn.X2, 256)
					u.SyscallReg(kernel.SysRead)
					computeLoop(u, "resample", 2600)
				})
				u.SyscallReg(kernel.SysClose)
				u.Exit(0)
			},
			Setup: func(k *kernel.Kernel) {
				sector := make([]byte, 512)
				for i := range sector {
					sector[i] = byte(i * 31)
				}
				k.Blk.WriteSector(7, sector)
			},
		},
		{
			// Package build: per compilation unit, a stat + open + read
			// (source), parsing compute, a compiler child (fork+exec),
			// an object write and a close.
			Name:            "package build",
			NeedsExecTarget: true,
			Build: func(u *kernel.UserASM) {
				u.CounterLoop("units", insn.X22, 10, func() {
					u.Syscall(kernel.SysFstatat, 0, kernel.PathTmpFile)
					u.Syscall(kernel.SysOpenat, 0, kernel.PathTmpFile, 0)
					u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
					u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
					u.MovImm(insn.X1, kernel.UserDataBase)
					u.MovImm(insn.X2, 512)
					u.SyscallReg(kernel.SysRead)
					// Parse/codegen compute.
					computeLoop(u, "parse", 900)
					// Spawn the compiler (fork + exec + wait-by-yield).
					u.SyscallReg(kernel.SysClone)
					u.A.CBNZ(insn.X0, "parent")
					u.Syscall(kernel.SysExecve, kernel.ExecTargetProgID)
					u.Exit(1)
					u.A.Label("parent")
					u.SyscallReg(kernel.SysSchedYield)
					// Write the object file and close.
					u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
					u.MovImm(insn.X1, kernel.UserDataBase)
					u.MovImm(insn.X2, 512)
					u.SyscallReg(kernel.SysWrite)
					u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
					u.SyscallReg(kernel.SysClose)
				})
				u.Exit(0)
			},
			Setup: func(k *kernel.Kernel) {
				k.Blk.WriteSector(7, make([]byte, 512))
			},
		},
		{
			// Network download: drain queued packets through the socket
			// receive path, checksumming each buffer (mostly kernel).
			Name: "network download",
			Build: func(u *kernel.UserASM) {
				u.Syscall(kernel.SysOpenat, 0, kernel.PathSocket, 0)
				u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
				u.A.Label("recv")
				u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
				u.MovImm(insn.X1, kernel.UserDataBase)
				u.MovImm(insn.X2, 1024)
				u.SyscallReg(kernel.SysRead)
				u.A.CBZ(insn.X0, "done") // EOF: queue drained
				// Light checksum over the received words.
				computeLoop(u, "csum", 60)
				u.A.B("recv")
				u.A.Label("done")
				u.SyscallReg(kernel.SysClose)
				u.Exit(0)
			},
			Setup: func(k *kernel.Kernel) {
				pkt := make([]byte, 1024)
				for i := range pkt {
					pkt[i] = byte(i)
				}
				for n := 0; n < 100; n++ {
					k.Net.InjectPacket(pkt)
				}
			},
		},
	}
}

// Result is one Figure 4 measurement.
type Result struct {
	Workload string
	Level    string
	Cycles   uint64
	// Relative is Cycles divided by the baseline build's cycles (filled
	// by RunSuite).
	Relative float64
}

// Run executes one workload on a pristine machine built with opts, from
// the shared snapshot pool (one boot per option set, then copy-on-write
// forks/resets; Setup runs on the fork, after the snapshot point, so it
// never leaks between cells).
func Run(opts kernel.Options, level string, w Workload) (Result, error) {
	m, err := snapshot.Shared.Acquire(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		return Result{}, err
	}
	defer m.Release()
	if w.Setup != nil {
		w.Setup(m.K)
	}
	var target func(u *kernel.UserASM)
	if w.NeedsExecTarget {
		// The "compiler": a short burst of compute, then exit.
		target = func(u *kernel.UserASM) {
			computeLoop(u, "cc1work", 300)
			u.Exit(0)
		}
	}
	cycles, err := m.K.RunProgram(w.Name, w.Build, target, 2_000_000_000)
	if err != nil {
		return Result{}, err
	}
	return Result{Workload: w.Name, Level: level, Cycles: cycles}, nil
}

// RunSuite measures all workloads under the Figure 4 levels on machines
// with the given vCPU count and fills in relative costs. Every
// (workload, level) cell runs on its own isolated machine (a
// copy-on-write fork from the warm pool) — concurrently over the Ps not
// already running cells (snapshot.ForEach) — and relative costs
// are filled in afterwards from the completed grid, so the results do
// not depend on the schedule. Once ctx is done no further cell starts.
func RunSuite(ctx context.Context, cpus int) ([]Result, error) {
	levels := core.Levels()
	workloads := Suite()
	out := make([]Result, len(workloads)*len(levels))
	err := snapshot.ForEach(ctx, len(out), func(idx int) error {
		w := workloads[idx/len(levels)]
		lv := levels[idx%len(levels)]
		var err error
		out[idx], err = Run(core.KernelOptionsFor(lv, core.Options{Seed: seed, CPUs: cpus}), lv.String(), w)
		return err
	})
	if err != nil {
		return nil, err
	}
	base := map[string]uint64{}
	for i, r := range out {
		if r.Level == core.LevelNone.String() {
			base[out[i].Workload] = r.Cycles
		}
	}
	for i := range out {
		out[i].Relative = float64(out[i].Cycles) / float64(base[out[i].Workload])
	}
	return out, nil
}

// GeoMeanOverhead returns the geometric-mean relative cost of one level
// across workloads (the paper's "geometric mean of the overhead drops to
// less than 4%").
func GeoMeanOverhead(results []Result, level string) float64 {
	prod := 1.0
	n := 0
	for _, r := range results {
		if r.Level == level {
			prod *= r.Relative
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}
