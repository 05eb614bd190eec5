package cpu_test

import (
	"slices"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/kernel"
)

// TestSyscallLoopFusesTrapFrame requires the kernel's syscall round
// trip, once hot, to run el0_sync's 15-STP trap-frame push and
// ret_to_user's 15-LDP pop as fused ops, and the key setter's MOVZ and
// three MOVKs per key half as fused moves, so a change that silently
// stops fusing them fails here rather than only in a benchmark.
func TestSyscallLoopFusesTrapFrame(t *testing.T) {
	k, err := kernel.New(kernel.Options{Config: codegen.ConfigFull(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	prog, err := kernel.BuildProgram("getppid", func(u *kernel.UserASM) {
		u.A.Label("loop")
		u.SyscallReg(kernel.SysGetppid)
		u.A.B("loop")
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	k.Run(200_000)
	stp, ldp, mov := k.CPU.FusedRunLens()
	if !slices.Contains(stp, 15) || !slices.Contains(ldp, 15) || !slices.Contains(mov, 4) {
		t.Fatalf("fused STP runs %v, LDP runs %v, move chains %v in the syscall loop's traces; want a 15-STP push, a 15-LDP pop and 4-instruction key-setter moves",
			stp, ldp, mov)
	}
}
