// Package core composes the Camouflage system — the paper's primary
// contribution — from its substrates: the bootloader generates kernel
// PAuth keys and synthesises the XOM key-setter; the hypervisor enforces
// XOM and MMU lockdown; the instrumented kernel switches keys on every
// EL0/EL1 transition, signs return addresses with the hardened Listing-3
// modifier, and protects writable function pointers and operations-table
// pointers with object-bound PACs; and the §4.1 static verifier checks the
// final image before it boots.
package core

import (
	"context"
	"fmt"

	"camouflage/internal/codegen"
	"camouflage/internal/kernel"
	"camouflage/internal/pac"
	"camouflage/internal/snapshot"
)

// ProtectionLevel selects how much of the Camouflage design is enabled —
// the three configurations of Figures 3 and 4.
type ProtectionLevel int

// Protection levels.
const (
	// LevelNone is the unprotected baseline kernel.
	LevelNone ProtectionLevel = iota
	// LevelBackwardEdge enables return-address protection only (Listing
	// 3, key IB).
	LevelBackwardEdge
	// LevelFull adds forward-edge CFI (key IA) and DFI for operations-
	// table and other sensitive data pointers (key DB).
	LevelFull
)

// builds is the one table of kernel builds: each protection level's
// name, as the figures print it, and its instrumentation. Its order is
// the figures' column order.
var builds = [...]struct {
	name   string
	config func() *codegen.Config
}{
	LevelNone:         {"none", codegen.ConfigNone},
	LevelBackwardEdge: {"backward-edge", codegen.ConfigBackward},
	LevelFull:         {"full", codegen.ConfigFull},
}

// Levels returns the protection levels in the figures' order.
func Levels() []ProtectionLevel {
	out := make([]ProtectionLevel, len(builds))
	for i := range out {
		out[i] = ProtectionLevel(i)
	}
	return out
}

// valid reports whether the level has a row in the build table.
func (l ProtectionLevel) valid() bool { return l >= 0 && int(l) < len(builds) }

// String names the level as the figures do.
func (l ProtectionLevel) String() string {
	if !l.valid() {
		return "level?"
	}
	return builds[l].name
}

// LevelByName parses a level name as String prints it ("none",
// "backward-edge", "full") — the wire format of the service daemon's
// machine-lease API.
func LevelByName(name string) (ProtectionLevel, error) {
	for _, l := range Levels() {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown protection level %q", name)
}

// Options tunes a System beyond its protection level.
type Options struct {
	// Seed drives all boot-time randomness.
	Seed uint64
	// FailureThreshold overrides the §5.4 brute-force halt threshold.
	FailureThreshold int
	// Compat builds the §5.5 backwards-compatible kernel and runs it on
	// an ARMv8.0 core.
	Compat bool
	// Scheme overrides the backward-edge scheme (for Figure 2 studies);
	// zero value keeps the level's default.
	Scheme codegen.Scheme
	// CPUs is the vCPU count of the machine (0/1: uniprocessor,
	// bit-identical to pre-SMP builds; up to kernel.MaxCPUs).
	CPUs int
}

// System is a booted Camouflage machine.
type System struct {
	// Kernel is the underlying kernel runtime.
	Kernel *kernel.Kernel
	// Level is the protection level the system was built with.
	Level ProtectionLevel
}

// KernelOptionsFor lowers (level, opts) to kernel build options. It is
// the one path from a build to kernel.Options: New, Replicate, the
// evaluation suites, the attack harness and the service daemon all
// take it, so equivalent requests land on the same snapshot.KeyFor key.
// A level outside the build table lowers to the unprotected build.
func KernelOptionsFor(level ProtectionLevel, opts Options) kernel.Options {
	cfg := codegen.ConfigNone()
	if level.valid() {
		cfg = builds[level].config()
	}
	if opts.Scheme != codegen.SchemeNone {
		cfg.Scheme = opts.Scheme
	}
	cfg.NumCPUs = opts.CPUs
	if opts.Compat {
		cfg.Scheme = codegen.SchemeCamouflageCompat
		cfg.ForwardCFI = false
		cfg.DFI = false
	}
	return kernel.Options{
		Config:           cfg,
		Seed:             opts.Seed,
		FailureThreshold: opts.FailureThreshold,
	}
}

// New builds, statically verifies (§4.1, via kernel.VerifyImage inside
// the shared boot pipeline), and boots a system.
func New(level ProtectionLevel, opts Options) (*System, error) {
	k, err := snapshot.BootOptions(KernelOptionsFor(level, opts))()
	if err != nil {
		return nil, err
	}
	return &System{Kernel: k, Level: level}, nil
}

// SystemSnapshot is an immutable capture of a booted System. Fork new
// Systems from it in O(1) guest memory (copy-on-write) or Reset a
// dirtied descendant back to the captured point in O(pages touched).
// Safe for concurrent Fork/Reset.
type SystemSnapshot struct {
	// Level is the protection level the captured system was built with.
	Level ProtectionLevel

	snap *snapshot.Snapshot
}

// Snapshot captures the System's complete state — mid-execution captures
// are allowed; the live System keeps running unperturbed on a fresh
// copy-on-write overlay.
func (s *System) Snapshot() *SystemSnapshot {
	return &SystemSnapshot{Level: s.Level, snap: snapshot.Take(s.Kernel)}
}

// Fork builds an independent System resuming from the captured state
// without re-running codegen, the §4.1 verifier, or boot.
func (ss *SystemSnapshot) Fork() (*System, error) {
	k, err := ss.snap.Fork()
	if err != nil {
		return nil, err
	}
	return &System{Kernel: k, Level: ss.Level}, nil
}

// Reset rewinds a descendant System to the captured state, discarding
// everything it ran since.
func (ss *SystemSnapshot) Reset(s *System) error {
	return ss.snap.Reset(s.Kernel)
}

// Replicate builds n isolated Systems with the same level and options.
// The first System for a given option set pays one build+verify+boot
// (cached in the shared warm pool); the rest are copy-on-write forks of
// its post-boot snapshot, produced concurrently over the Ps not already
// running cells (snapshot.ForEach). Construction is
// deterministic and forking is exact, so every replica is identical to a
// sequentially built one (pinned by TestReplicateMatchesNew).
func Replicate(level ProtectionLevel, opts Options, n int) ([]*System, error) {
	kopts := KernelOptionsFor(level, opts)
	snap, err := snapshot.Shared.SnapshotFor(snapshot.KeyFor(kopts), snapshot.BootOptions(kopts))
	if err != nil {
		return nil, err
	}
	systems := make([]*System, n)
	err = snapshot.ForEach(context.Background(), n, func(i int) error {
		k, err := snap.Fork()
		if err != nil {
			return err
		}
		systems[i] = &System{Kernel: k, Level: level}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return systems, nil
}

// RunProgram builds a user program, spawns it as pid 1 and runs it to
// completion, returning consumed cycles.
func (s *System) RunProgram(name string, build func(u *kernel.UserASM)) (uint64, error) {
	return s.Kernel.RunProgram(name, build, nil, 2_000_000_000)
}

// Stats summarises the machine state for reporting.
type Stats struct {
	Cycles      uint64
	Instrs      uint64
	PACFailures int
	OopsCount   int
	BootCycles  uint64
	Halted      bool
}

// Stats returns current counters.
func (s *System) Stats() Stats {
	return Stats{
		Cycles:      s.Kernel.CPU.Cycles,
		Instrs:      s.Kernel.CPU.Retired,
		PACFailures: s.Kernel.PACFailures,
		OopsCount:   len(s.Kernel.Oops),
		BootCycles:  s.Kernel.BootCycles,
		Halted:      s.Kernel.Halted,
	}
}

// KernelKeyInstalled reports whether the given key slot holds the
// bootloader-generated kernel key (sanity for examples and tests).
func (s *System) KernelKeyInstalled(id pac.KeyID) bool {
	return s.Kernel.CPU.Signer.Key(id) == s.Kernel.KernelKeysForTest().Keys[id]
}
