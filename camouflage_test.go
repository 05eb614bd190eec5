package camouflage

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"camouflage/internal/insn"
	"camouflage/internal/kernel"
)

func TestFacadeBootAndRun(t *testing.T) {
	sys, err := NewSystem(LevelFull, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := sys.RunProgram("t", func(u *kernel.UserASM) {
		u.SyscallReg(kernel.SysGetppid)
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "keys", "fig2", "fig3", "fig4",
		"cocci", "attacks", "ablation-keys", "ablation-replay"}
	got := map[string]bool{}
	for _, e := range Experiments() {
		got[e.ID] = true
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

// shortWorkload is the acceptance-criterion program: a few syscalls and
// a little compute, representative of one experiment repetition.
func shortWorkload(u *kernel.UserASM) {
	u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
	u.CounterLoop("loop", insn.X21, 2, func() {
		u.SyscallReg(kernel.SysGetppid)
	})
	u.Exit(0)
}

// runShortOn runs the prebuilt short workload to completion on a
// pristine machine (the per-repetition work an experiment cell pays on
// top of machine supply).
func runShortOn(t testing.TB, sys *System, prog *kernel.Program) {
	t.Helper()
	sys.Kernel.RegisterProgram(1, prog)
	if _, err := sys.Kernel.Spawn(1); err != nil {
		t.Fatal(err)
	}
	if stop := sys.Kernel.Run(2_000_000); !sys.Kernel.Halted {
		t.Fatalf("short workload did not finish: %+v", stop)
	}
}

// TestForkAtLeast5xFasterThanBoot pins the headline acceptance
// criterion: Fork+run of a warm snapshot is at least 5x faster than
// NewSystem+run for a short workload. The workload program is built once
// — program assembly is identical on both paths; the criterion is about
// machine supply (codegen + §4.1 verification + boot vs a copy-on-write
// fork).
func TestForkAtLeast5xFasterThanBoot(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratio is skewed by race instrumentation")
	}
	const iters = 8
	prog, err := kernel.BuildProgram("short", shortWorkload)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up (and snapshot source): excluded from both timings.
	sys, err := NewSystem(LevelFull, Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()

	measure := func() float64 {
		bootStart := time.Now()
		for i := 0; i < iters; i++ {
			s, err := NewSystem(LevelFull, Options{Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			runShortOn(t, s, prog)
		}
		bootTime := time.Since(bootStart)

		forkStart := time.Now()
		for i := 0; i < iters; i++ {
			s, err := snap.Fork()
			if err != nil {
				t.Fatal(err)
			}
			runShortOn(t, s, prog)
		}
		forkTime := time.Since(forkStart)

		ratio := float64(bootTime) / float64(forkTime)
		t.Logf("boot+run %v, fork+run %v: %.1fx", bootTime/iters, forkTime/iters, ratio)
		return ratio
	}

	// Best of three: a GC pause or scheduler stall inside one short
	// timing window must not fail the build; a genuine regression below
	// the 5x floor fails all attempts.
	best := 0.0
	for attempt := 0; attempt < 3 && best < 5; attempt++ {
		if r := measure(); r > best {
			best = r
		}
	}
	if best < 5 {
		t.Fatalf("fork+run only %.1fx faster than boot+run, want >= 5x", best)
	}
}

func TestRunExperimentByID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE 1") {
		t.Fatalf("unexpected output: %q", buf.String())
	}
	if err := RunExperiment("bogus", &buf); err == nil {
		t.Fatal("bogus experiment id accepted")
	}
}

// TestExecSteadyStateZeroAllocs pins the fast path's allocation-free
// steady state with testing.AllocsPerRun, which reports a float average
// — unlike `go test -benchmem`, whose allocs/op is truncated to an
// integer and would let a conditional allocation on ~90% of
// instructions read as 0. cmd/benchgate's allocs row guards the CI
// trajectory; this test guards the sub-1.0 band the row cannot see.
//
// The budget is per-instruction, not absolutely zero: timer-dependent
// kernel branches occasionally enter already-decoded code at a new
// entry PA as the cycle counter grows, and each such cold entry decodes
// one small block (a few allocations, amortizing toward zero but never
// a hard floor). A per-instruction allocation regression — the failure
// mode this test exists for — sits orders of magnitude above the
// budget.
//
// LevelFull runs the same mix with every kernel entry and exit signing
// and authenticating and the syscall path rewriting key registers, so it
// also pins the allocation-free MSR key install (pac.Signer.SetKey).
func TestExecSteadyStateZeroAllocs(t *testing.T) {
	for _, lv := range []struct {
		name  string
		level ProtectionLevel
	}{
		{"none", LevelNone},
		{"full", LevelFull},
	} {
		t.Run(lv.name, func(t *testing.T) {
			sys, err := NewSystem(lv.level, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			spawnMix(t, sys, 1)
			sys.Kernel.Run(500_000) // warm: decode, TLB, host pointers, chains
			const instrsPerRun = 5_000
			allocs := testing.AllocsPerRun(20, func() {
				sys.Kernel.Run(instrsPerRun)
			})
			if perInstr := allocs / instrsPerRun; perInstr > 0.01 {
				t.Fatalf("steady-state Run allocates %.4f times per instruction (%.1f per %d-instruction slice); the fast path must not allocate per instruction",
					perInstr, allocs, instrsPerRun)
			}
		})
	}
}
