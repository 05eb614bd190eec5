package core

import (
	"testing"

	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/pac"
)

func TestNewBootsAllLevels(t *testing.T) {
	for _, lv := range []ProtectionLevel{LevelNone, LevelBackwardEdge, LevelFull} {
		s, err := New(lv, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", lv, err)
		}
		if s.Stats().BootCycles == 0 {
			t.Errorf("%v: no boot cycles", lv)
		}
		if lv != LevelNone && !s.KernelKeyInstalled(pac.KeyIB) {
			t.Errorf("%v: IB key not installed", lv)
		}
	}
}

func TestRunProgram(t *testing.T) {
	s, err := New(LevelFull, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := s.RunProgram("demo", func(u *kernel.UserASM) {
		u.SyscallReg(kernel.SysGetppid)
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("no cycles consumed")
	}
	if s.Stats().PACFailures != 0 {
		t.Fatal("PAC failures in benign program")
	}
}

func TestCompatSystem(t *testing.T) {
	s, err := New(LevelBackwardEdge, Options{Seed: 3, Compat: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunProgram("compat", func(u *kernel.UserASM) {
		u.SyscallReg(kernel.SysGetpid)
		u.Exit(0)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeOverride(t *testing.T) {
	s, err := New(LevelBackwardEdge, Options{Seed: 4, Scheme: codegen.SchemeClangSP})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Cfg.Scheme != codegen.SchemeClangSP {
		t.Fatalf("scheme = %v", s.Kernel.Cfg.Scheme)
	}
}

func TestLevelStrings(t *testing.T) {
	if LevelNone.String() != "none" || LevelBackwardEdge.String() != "backward-edge" ||
		LevelFull.String() != "full" {
		t.Fatal("level names wrong")
	}
}

// TestLevelTable pins the build table in the figures' order: each
// level's name, its lookup by name, and the instrumentation
// KernelOptionsFor lowers it to at a given vCPU count.
func TestLevelTable(t *testing.T) {
	want := []struct {
		name            string
		scheme          codegen.Scheme
		forwardCFI, dfi bool
	}{
		{"none", codegen.SchemeNone, false, false},
		{"backward-edge", codegen.SchemeCamouflage, false, false},
		{"full", codegen.SchemeCamouflage, true, true},
	}
	levels := Levels()
	if len(levels) != len(want) {
		t.Fatalf("%d levels, want %d", len(levels), len(want))
	}
	for i, lv := range levels {
		w := want[i]
		if lv.String() != w.name {
			t.Errorf("level %d is %q, want %q", i, lv, w.name)
		}
		if got, err := LevelByName(w.name); err != nil || got != lv {
			t.Errorf("LevelByName(%q) = %v, %v; want %v", w.name, got, err, lv)
		}
		cfg := KernelOptionsFor(lv, Options{CPUs: 2}).Config
		if cfg.Scheme != w.scheme || cfg.ForwardCFI != w.forwardCFI || cfg.DFI != w.dfi ||
			cfg.ZeroModifier || cfg.CPUs() != 2 {
			t.Errorf("%s lowers to %+v", lv, *cfg)
		}
	}
	if _, err := LevelByName("maximal"); err == nil {
		t.Error("LevelByName accepted an unknown level")
	}
}

// TestVerifierRejectsKeyReadingKernel plants an MRS-of-key in the built
// image and checks that core.New refuses to boot it.
func TestVerifierRejectsKeyReadingKernel(t *testing.T) {
	// Build a normal kernel, then corrupt the image under test via the
	// scanner directly: core.New embeds the scan, so simulate by checking
	// the scanner behaviour on a poisoned copy of the text section.
	k, err := kernel.New(kernel.Options{Config: codegen.ConfigFull(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	text := append([]byte(nil), k.Img.Sections[".text"].Bytes...)
	bad := insn.MRS(insn.X0, insn.APIBKeyLo_EL1).Encode()
	text[0] = byte(bad)
	text[1] = byte(bad >> 8)
	text[2] = byte(bad >> 16)
	text[3] = byte(bad >> 24)
	// The same check core.New performs must now fire.
	found := false
	for _, f := range scanForKeyReads(text) {
		_ = f
		found = true
	}
	if !found {
		t.Fatal("planted key read not detected")
	}
}

func TestBootKeysDifferAcrossSeeds(t *testing.T) {
	s1, err := New(LevelFull, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(LevelFull, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	k1 := s1.Kernel.KernelKeysForTest().Keys[pac.KeyIB]
	k2 := s2.Kernel.KernelKeysForTest().Keys[pac.KeyIB]
	if k1 == k2 {
		t.Fatal("kernel keys identical across seeds")
	}
	_ = boot.ModeV83
}

// TestReplicateBuildsIsolatedIdenticalSystems: concurrent replication
// must yield fully booted, mutually isolated, deterministic replicas.
func TestReplicateBuildsIsolatedIdenticalSystems(t *testing.T) {
	systems, err := Replicate(LevelFull, Options{Seed: 21}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 3 {
		t.Fatalf("got %d systems", len(systems))
	}
	ref := systems[0].Stats()
	for i, s := range systems {
		if !s.KernelKeyInstalled(pac.KeyIB) {
			t.Errorf("replica %d: kernel IB key not installed", i)
		}
		if st := s.Stats(); st != ref {
			t.Errorf("replica %d stats %+v differ from replica 0 %+v", i, st, ref)
		}
		if i > 0 && s.Kernel.CPU == systems[0].Kernel.CPU {
			t.Error("replicas share a CPU")
		}
	}
	// Mutating one replica must not leak into another.
	if _, err := systems[1].RunProgram("probe", func(u *kernel.UserASM) {
		u.SyscallReg(kernel.SysGetppid)
		u.Exit(0)
	}); err != nil {
		t.Fatal(err)
	}
	if systems[2].Stats() != ref {
		t.Error("running a program on one replica changed another")
	}
}

// TestReplicateMatchesNew: a pool-forked replica is observably identical
// to a freshly built and booted System — same Stats at rest and same
// cycle consumption running the same program.
func TestReplicateMatchesNew(t *testing.T) {
	opts := Options{Seed: 23}
	fresh, err := New(LevelFull, opts)
	if err != nil {
		t.Fatal(err)
	}
	systems, err := Replicate(LevelFull, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	forked := systems[0]
	if forked.Stats() != fresh.Stats() {
		t.Fatalf("post-boot stats diverge: fork %+v fresh %+v", forked.Stats(), fresh.Stats())
	}
	prog := func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
		u.SyscallReg(kernel.SysGetppid)
		u.Exit(0)
	}
	c1, err := fresh.RunProgram("probe", prog)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := forked.RunProgram("probe", prog)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("program cycles diverge: fork %d fresh %d", c2, c1)
	}
	if forked.Stats() != fresh.Stats() {
		t.Fatalf("post-run stats diverge: fork %+v fresh %+v", forked.Stats(), fresh.Stats())
	}
}

// TestSystemSnapshotForkReset: the System-level snapshot API forks and
// resets through the same machinery as the pool.
func TestSystemSnapshotForkReset(t *testing.T) {
	sys, err := New(LevelFull, Options{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	fork, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	prog := func(u *kernel.UserASM) {
		u.SyscallReg(kernel.SysGetppid)
		u.Exit(0)
	}
	want, err := fork.RunProgram("p", prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Reset(fork); err != nil {
		t.Fatal(err)
	}
	if fork.Stats() != sys.Stats() {
		t.Fatalf("reset fork stats %+v differ from origin %+v", fork.Stats(), sys.Stats())
	}
	got, err := fork.RunProgram("p", prog)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("re-run after reset: %d cycles, want %d", got, want)
	}
}
