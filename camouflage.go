// Package camouflage is a from-scratch Go reproduction of "Camouflage:
// Hardware-assisted CFI for the ARM Linux kernel" (Denis-Courmont,
// Liljestrand, Chinea, Ekberg — DAC 2020, arXiv:1912.04145).
//
// The library contains a cycle-approximate AArch64-subset simulator with
// full ARMv8.3 pointer-authentication semantics (QARMA-64 PACs, real A64
// instruction encodings, a two-stage VMSAv8 MMU), a hypervisor enforcing
// execute-only memory and MMU lockdown, a bootloader that hides the kernel
// PAuth keys inside the XOM key-setter's immediates, a miniature kernel
// whose entry/exit paths switch keys exactly as the paper describes, the
// compiler instrumentation for all the return-address schemes the paper
// compares, a loadable-module subsystem with the §4.1 static-analysis
// gate, an attack harness for the §6.2 security evaluation, and benchmark
// suites regenerating every figure and table of the evaluation.
//
// Quick start:
//
//	sys, err := camouflage.NewSystem(camouflage.LevelFull, camouflage.Options{Seed: 1})
//	if err != nil { ... }
//	cycles, err := sys.RunProgram("hello", func(u *kernel.UserASM) {
//	    u.SyscallReg(kernel.SysGetppid)
//	    u.Exit(0)
//	})
//
// See DESIGN.md for the system inventory, the fast-path execution
// pipeline (software TLB + decoded basic-block cache), the cache
// invalidation contract, and the concurrency model of the experiment
// cell loop.
package camouflage

import (
	"context"
	"io"

	"camouflage/internal/core"
	"camouflage/internal/figures"
)

// ProtectionLevel selects how much of the Camouflage design is enabled.
type ProtectionLevel = core.ProtectionLevel

// Protection levels (the three builds of Figures 3 and 4).
const (
	// LevelNone is the unprotected baseline kernel.
	LevelNone = core.LevelNone
	// LevelBackwardEdge enables hardened return-address protection only.
	LevelBackwardEdge = core.LevelBackwardEdge
	// LevelFull adds forward-edge CFI and data-flow integrity.
	LevelFull = core.LevelFull
)

// Options tunes a System beyond its protection level.
type Options = core.Options

// System is a booted Camouflage machine.
type System = core.System

// Stats summarises machine counters.
type Stats = core.Stats

// NewSystem builds, statically verifies (§4.1) and boots a system.
func NewSystem(level ProtectionLevel, opts Options) (*System, error) {
	return core.New(level, opts)
}

// ReplicateSystems builds n isolated Systems with the same level and
// options: one build+verify+boot per option set (warm-pooled), then
// copy-on-write forks of its post-boot snapshot, produced concurrently
// over the Ps not already running cells. Every replica is identical to a
// sequentially built System. Used by the throughput benchmarks.
func ReplicateSystems(level ProtectionLevel, opts Options, n int) ([]*System, error) {
	return core.Replicate(level, opts, n)
}

// SystemSnapshot is an immutable capture of a booted System: Fork new
// Systems from it in O(1) guest memory, or Reset a dirtied descendant
// back to the captured point in O(pages touched). Capture one with
// System.Snapshot (mid-execution captures are allowed).
type SystemSnapshot = core.SystemSnapshot

// Experiment is one reproducible table or figure from the paper.
type Experiment = figures.Experiment

// Experiments returns the registry of every reproducible table and figure,
// in paper order.
func Experiments() []Experiment { return figures.All() }

// RunExperiment regenerates one table or figure by ID (e.g. "fig3"),
// writing its text rendering to w.
func RunExperiment(id string, w io.Writer) error {
	e, ok := figures.Lookup(id)
	if !ok {
		return errUnknownExperiment(id)
	}
	return e.Run(context.Background(), w, ExperimentOptions{})
}

// ExperimentStats records one experiment execution: its wall time and
// the simulated work it retired.
type ExperimentStats = figures.RunStats

// ExperimentOptions parameterizes an experiment run: the id selection,
// the vCPU count of the booted machines and an optional run trace.
type ExperimentOptions = figures.RunOptions

// RunExperiments runs the selected experiments (every registered one
// when opts.IDs is empty), writing the renderings to w in registry order,
// and returns per-experiment stats. Experiments run one at a time; the
// cells inside one fan out across isolated Systems over the Ps not
// already running cells (GOMAXPROCS=1 runs them in order), and the
// output is byte-identical either way. With
// opts.CPUs: 2 every machine the experiments boot is a true 2-core SMP
// system (deterministic round-robin scheduler, per-core caches, shared
// shootdown generations — DESIGN.md §9). Once ctx is done the run
// starts no further experiment or cell and returns ctx.Err(); the
// camouflaged daemon's request deadlines and run watchdog reach the
// same runner through figures.RunAllWith.
func RunExperiments(ctx context.Context, w io.Writer, opts ExperimentOptions) ([]ExperimentStats, error) {
	return figures.RunAllWith(ctx, w, opts)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "camouflage: unknown experiment " + string(e) + " (see Experiments())"
}
