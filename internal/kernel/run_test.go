package kernel

import (
	"reflect"
	"testing"

	"camouflage/internal/cpu"
	"camouflage/internal/insn"
)

// abortingProg forks children that branch into unmapped user memory, a
// fetch abort that takes a step and retires nothing (the kernel then
// kills the child), and yields forever in between, so every budget runs
// to its end.
func abortingProg(children uint64) func(u *UserASM) {
	return func(u *UserASM) {
		u.CounterLoop("fork", insn.X21, children, func() {
			u.SyscallReg(SysClone)
			u.A.CBZ(insn.X0, "child")
			u.SyscallReg(SysSchedYield)
		})
		u.A.Label("spin")
		u.SyscallReg(SysSchedYield)
		u.SyscallReg(SysGetppid)
		u.A.B("spin")
		u.A.Label("child")
		u.MovImm(insn.X9, 0x3000_0000)
		u.A.I(insn.BR(insn.X9))
	}
}

// abortingMachine boots a full-protection machine with cpus vCPUs,
// starts abortingProg on every core and captures it.
func abortingMachine(t *testing.T, cpus int) *State {
	t.Helper()
	k := bootSMP(t, cpus, 11)
	prog, err := BuildProgram("aborter", abortingProg(4))
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	for i := 0; i < cpus; i++ {
		if _, err := k.SpawnOn(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	return k.CaptureState()
}

func forkState(t *testing.T, st *State) *Kernel {
	t.Helper()
	k, err := NewFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sameMachine reports whether two kernels hold the same machine: what
// CaptureState freezes, every core's registers and counters, every
// host-side mirror (tasks, user tables, pipes, files, oops records) and
// every RAM page.
func sameMachine(a, b *Kernel) bool {
	return reflect.DeepEqual(a.CaptureState(), b.CaptureState())
}

func retiredAll(k *Kernel) uint64 {
	var n uint64
	for _, c := range k.CPUs {
		n += c.Retired
	}
	return n
}

// TestRunUntilNeverDoneMatchesRun: with a predicate that never turns
// true, RunUntil leaves the machine exactly as Run does, at budgets on
// and off the SMPQuantum grid, at 1 and 2 vCPUs. The workload takes
// fetch-abort steps that retire nothing, so a uniprocessor RunUntil
// that spent its budget in retired instructions instead of steps would
// run past Run and fail here.
func TestRunUntilNeverDoneMatchesRun(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		st := abortingMachine(t, cpus)
		for _, budget := range []uint64{SMPQuantum, 5*SMPQuantum + 1234, 16 * SMPQuantum, 250_001} {
			ref, k := forkState(t, st), forkState(t, st)
			start := retiredAll(ref)
			refStop := ref.Run(budget)
			calls := 0
			stop := k.RunUntil(budget, func() bool { calls++; return false })
			if stop.Kind != refStop.Kind || stop.Code != refStop.Code {
				t.Errorf("%d vCPU, budget %d: RunUntil stopped with %+v, Run with %+v", cpus, budget, stop, refStop)
			}
			if calls == 0 {
				t.Errorf("%d vCPU, budget %d: the predicate was never consulted", cpus, budget)
			}
			if !sameMachine(k, ref) {
				t.Errorf("%d vCPU, budget %d: RunUntil left a different machine than Run", cpus, budget)
			}
			if cpus == 1 && budget == 250_001 {
				if refStop.Kind != cpu.StopLimit || retiredAll(ref)-start >= budget {
					t.Errorf("budget %d: Run stopped with %+v after retiring %d: the workload took no step that retires nothing",
						budget, refStop, retiredAll(ref)-start)
				}
			}
		}
	}
}

// TestRunUntilStopsWithinOneRotation: once the predicate turns true,
// RunUntil returns within one quantum at 1 vCPU and one scheduler
// rotation at 2. At 1 vCPU the machine it leaves is Run's after the
// same whole slices, so a sealed run is a prefix of the full one.
func TestRunUntilStopsWithinOneRotation(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		st := abortingMachine(t, cpus)
		k := forkState(t, st)
		target := retiredAll(k) + 50_000
		calls := 0
		stop := k.RunUntil(10_000_000, func() bool { calls++; return retiredAll(k) >= target })
		if stop.Kind != cpu.StopLimit {
			t.Fatalf("%d vCPU: RunUntil stopped with %+v", cpus, stop)
		}
		got := retiredAll(k)
		if got < target || got >= target+uint64(cpus)*SMPQuantum {
			t.Errorf("%d vCPU: stopped at %d retired, want within one rotation (%d instructions) past %d",
				cpus, got, cpus*SMPQuantum, target)
		}
		if cpus == 1 {
			ref := forkState(t, st)
			ref.Run(uint64(calls) * SMPQuantum)
			if !sameMachine(k, ref) {
				t.Errorf("stopped after %d slices, but the machine differs from Run(%d)", calls, calls*SMPQuantum)
			}
		}
	}
}
