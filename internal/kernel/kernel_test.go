package kernel

import (
	"testing"

	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/insn"
	"camouflage/internal/pac"
)

// bootKernel builds and boots a kernel with the given config.
func bootKernel(t *testing.T, cfg *codegen.Config) *Kernel {
	t.Helper()
	k, err := New(Options{Config: cfg, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootInstallsKernelKeys(t *testing.T) {
	k := bootKernel(t, codegen.ConfigFull())
	for _, id := range boot.KernelKeys {
		if got := k.CPU.Signer.Key(id); got != k.KernelKeysForTest().Keys[id] {
			t.Fatalf("key %v not installed by XOM setter", id)
		}
	}
	if !k.Hyp.LockedDown() {
		t.Fatal("hypervisor not locked down after boot")
	}
	if k.BootCycles == 0 {
		t.Fatal("boot consumed no cycles")
	}
}

func TestBootSignsStaticWork(t *testing.T) {
	k := bootKernel(t, codegen.ConfigFull())
	workPA := KVAToPA(DataBase) + StaticWorkOffset
	signed := k.CPU.Bus.RAM.Read64(workPA + WorkFunc)
	raw := k.Img.Symbols["work_handler"]
	if signed == raw {
		t.Fatal("static work pointer left unsigned after early boot (§4.6)")
	}
	mod := pac.ObjectModifier(DataBase+StaticWorkOffset, tcWorkFunc)
	got, ok := k.CPU.Signer.Auth(signed, mod, pac.KeyIA)
	if !ok || got != raw {
		t.Fatalf("static work pointer does not authenticate: (%#x, %v)", got, ok)
	}
}

func TestBaselineBootSkipsSigning(t *testing.T) {
	k := bootKernel(t, codegen.ConfigNone())
	workPA := KVAToPA(DataBase) + StaticWorkOffset
	if got := k.CPU.Bus.RAM.Read64(workPA + WorkFunc); got != k.Img.Symbols["work_handler"] {
		t.Fatalf("baseline build signed the static pointer: %#x", got)
	}
}

// runProgram boots, spawns and runs a single program to completion.
func runProgram(t *testing.T, cfg *codegen.Config, build func(u *UserASM)) *Kernel {
	t.Helper()
	k := bootKernel(t, cfg)
	prog, err := BuildProgram("test", build)
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	stop := k.Run(50_000_000)
	if stop.Kind != cpu.StopHLT {
		t.Fatalf("did not halt: %+v (PC=%#x)", stop, k.CPU.PC)
	}
	return k
}

// userWord reads a quad from the (final) current task's user data window.
func userWord(k *Kernel, t *Task, off uint64) uint64 {
	return k.CPU.Bus.RAM.Read64(UVAToPA(t.PID, UserDataBase+off))
}

func TestGetppidSyscall(t *testing.T) {
	for _, cfg := range []*codegen.Config{codegen.ConfigNone(), codegen.ConfigBackward(), codegen.ConfigFull()} {
		var task *Task
		k := runProgram(t, cfg, func(u *UserASM) {
			u.SyscallReg(SysGetppid)
			u.MovImm(insn.X1, UserDataBase)
			u.A.I(insn.STR(insn.X0, insn.X1, 0))
			u.SyscallReg(SysGetpid)
			u.A.I(insn.STR(insn.X0, insn.X1, 8))
			u.Exit(0)
		})
		task = k.tasks[1]
		if task == nil {
			// Exited tasks are removed; look the PID up from records.
			task = &Task{PID: 1}
		}
		if got := userWord(k, task, 0); got != 0 {
			t.Fatalf("%v (dfi=%t): getppid = %d, want 0", cfg.Scheme, cfg.DFI, got)
		}
		if got := userWord(k, task, 8); got != 1 {
			t.Fatalf("%v (dfi=%t): getpid = %d, want 1", cfg.Scheme, cfg.DFI, got)
		}
	}
}

func TestUnknownSyscallReturnsENOSYS(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.Syscall(399) // mapped to sys_ni
		u.MovImm(insn.X1, UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 0))
		u.Syscall(3000) // out of range
		u.A.I(insn.STR(insn.X0, insn.X1, 8))
		u.Exit(0)
	})
	task := &Task{PID: 1}
	if got := int64(userWord(k, task, 0)); got != -38 {
		t.Fatalf("sys_ni returned %d, want -38", got)
	}
	if got := int64(userWord(k, task, 8)); got != -38 {
		t.Fatalf("out-of-range syscall returned %d, want -38", got)
	}
}

func TestOpenReadDevZero(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.Syscall(SysOpenat, 0, PathDevZero, 0) // → fd
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		// Pre-fill the buffer with junk so zeros are observable.
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 0x4A4A4A4A4A4A4A4A)
		u.A.I(insn.STR(insn.X2, insn.X1, 0))
		u.A.I(insn.STR(insn.X2, insn.X1, 56))
		// read(fd, buf, 64)
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 64)
		u.SyscallReg(SysRead)
		// Store the byte count after the buffer.
		u.MovImm(insn.X1, UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 64))
		u.Exit(0)
	})
	task := &Task{PID: 1}
	if got := userWord(k, task, 64); got != 64 {
		t.Fatalf("read returned %d, want 64", got)
	}
	for off := uint64(0); off < 64; off += 8 {
		if got := userWord(k, task, off); got != 0 {
			t.Fatalf("buffer[%d] = %#x, want 0 (/dev/zero)", off, got)
		}
	}
}

func TestWriteDevNull(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.Syscall(SysOpenat, 0, PathDevNull, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 128)
		u.SyscallReg(SysWrite)
		u.MovImm(insn.X1, UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 0))
		u.Exit(0)
	})
	if got := userWord(k, &Task{PID: 1}, 0); got != 128 {
		t.Fatalf("write returned %d, want 128", got)
	}
}

func TestBadFDRejected(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.Syscall(SysRead, 11, UserDataBase, 8) // fd 11 never opened
		u.MovImm(insn.X1, UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 0))
		u.Exit(0)
	})
	if got := int64(userWord(k, &Task{PID: 1}, 0)); got != -9 {
		t.Fatalf("read(bad fd) = %d, want -EBADF", got)
	}
}

func TestForkRunsChild(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.SyscallReg(SysClone)
		u.A.CBZ(insn.X0, "child")
		// Parent: record child pid, then exit (child still runnable).
		u.MovImm(insn.X1, UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 0))
		u.Exit(0)
		u.A.Label("child")
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 0xC41D)
		u.A.I(insn.STR(insn.X2, insn.X1, 8))
		u.Exit(0)
	})
	// Parent window holds the child pid; child window holds the marker.
	if got := userWord(k, &Task{PID: 1}, 0); got != 2 {
		t.Fatalf("parent saw child pid %d, want 2", got)
	}
	if got := userWord(k, &Task{PID: 2}, 8); got != 0xC41D {
		t.Fatalf("child marker = %#x, want 0xC41D", got)
	}
	if !k.Halted {
		t.Fatal("kernel not halted after last exit")
	}
}

func TestPipeBetweenProcesses(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		// pipe2(&fds)
		u.Syscall(SysPipe2, UserDataBase+0x100)
		u.SyscallReg(SysClone)
		u.A.CBZ(insn.X0, "child")
		// Parent: write 8 bytes into the pipe, then yield to the child.
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 0x1BADB002)
		u.A.I(insn.STR(insn.X2, insn.X1, 0))
		u.MovImm(insn.X9, UserDataBase+0x100)
		u.A.I(insn.LDR(insn.X0, insn.X9, 8)) // write fd
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(SysWrite)
		u.SyscallReg(SysSchedYield)
		u.Exit(0)
		// Child: read 8 bytes from the pipe (blocks until parent writes).
		u.A.Label("child")
		u.MovImm(insn.X9, UserDataBase+0x100)
		u.A.I(insn.LDR(insn.X0, insn.X9, 0)) // read fd
		u.MovImm(insn.X1, UserDataBase+0x40)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(SysRead)
		u.Exit(0)
	})
	if got := userWord(k, &Task{PID: 2}, 0x40); got != 0x1BADB002 {
		t.Fatalf("child read %#x through pipe, want 0x1BADB002", got)
	}
}

func TestExecRegeneratesUserKeys(t *testing.T) {
	k := bootKernel(t, codegen.ConfigFull())
	prog, err := BuildProgram("main", func(u *UserASM) {
		u.Syscall(SysExecve, 2)
		u.Exit(1) // unreachable: exec replaces the image
	})
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := BuildProgram("exec-target", func(u *UserASM) {
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 0xEEC5)
		u.A.I(insn.STR(insn.X2, insn.X1, 0))
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	k.RegisterProgram(2, prog2)
	task, err := k.Spawn(1)
	if err != nil {
		t.Fatal(err)
	}
	keysBefore := task.Keys
	stop := k.Run(10_000_000)
	if stop.Kind != cpu.StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if got := userWord(k, task, 0); got != 0xEEC5 {
		t.Fatalf("exec target marker = %#x", got)
	}
	if task.Keys == keysBefore {
		t.Fatal("exec did not regenerate user PAuth keys (§2.2)")
	}
}

// TestWorkqueueAuthenticatedDispatch runs the statically initialised
// work_struct through its authenticated pointer (§4.6).
func TestWorkqueueAuthenticatedDispatch(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.SyscallReg(SysWorkRun)
		u.SyscallReg(SysWorkRun)
		u.Exit(0)
	})
	counter := k.CPU.Bus.RAM.Read64(KVAToPA(DataBase) + StaticWorkOffset + WorkData)
	if counter != 2 {
		t.Fatalf("work counter = %d, want 2", counter)
	}
	if k.CPU.PACFailures != 0 {
		t.Fatalf("PAC failures during benign work dispatch: %d", k.CPU.PACFailures)
	}
}

// TestFOpsCorruptionCaughtDeterministic drives the same scenario with a
// breakpoint-free protocol: run the program once benignly, then corrupt
// the still-open file and issue the second read from a fresh process.
func TestFOpsCorruptionCaughtDeterministic(t *testing.T) {
	k := bootKernel(t, codegen.ConfigFull())
	// Program A opens /dev/zero, reads once, then spins on sched_yield
	// forever (so the file stays open while we corrupt it).
	progA, err := BuildProgram("holder", func(u *UserASM) {
		u.Syscall(SysOpenat, 0, PathDevZero, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(SysRead)
		u.A.Label("again")
		// Re-read in an infinite loop; the corruption lands mid-loop.
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(SysRead)
		u.A.B("again")
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, progA)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	// Let it open and read a few times.
	k.Run(500_000)
	fileVA := k.FileAddrByFD(0)
	if fileVA == 0 {
		t.Fatal("fd 0 not open")
	}
	// Attacker (arbitrary kernel R/W, §3.1): point f_ops at a forged
	// table in writable memory.
	forged := k.heapAlloc(OpsSize)
	gadget := k.Img.Symbols["dev_null_write"]
	k.CPU.Bus.RAM.Write64(KVAToPA(forged)+OpsRead, gadget)
	k.CPU.Bus.RAM.Write64(KVAToPA(fileVA)+FileOps, forged)
	k.CPU.InvalidateDecode()

	stop := k.Run(5_000_000)
	if stop.Kind != cpu.StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	if k.PACFailures != 1 {
		t.Fatalf("PACFailures = %d, want 1", k.PACFailures)
	}
	if len(k.Oops) == 0 || !k.Oops[0].PACFailure {
		t.Fatalf("oops log missing PAC failure: %+v", k.Oops)
	}
	if k.tasks[1] != nil {
		t.Fatal("offending task not killed")
	}
}

// TestBruteForceThresholdHaltsSystem models §5.4: repeated PAC failures
// from attacker-launched processes eventually halt the system.
func TestBruteForceThresholdHaltsSystem(t *testing.T) {
	k, err := New(Options{Config: codegen.ConfigFull(), Seed: 7, FailureThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram("bruteforce", func(u *UserASM) {
		u.Syscall(SysOpenat, 0, PathDevZero, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.A.Label("spin")
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(SysRead)
		u.A.B("spin")
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)

	guesses := 0
	for round := 0; round < 10 && !k.Halted; round++ {
		if _, err := k.Spawn(1); err != nil {
			t.Fatal(err)
		}
		k.Run(300_000) // let it open + read once
		fileVA := k.FileAddrByFD(0)
		if fileVA == 0 {
			t.Fatalf("round %d: fd not open", round)
		}
		// Brute-force guess: raw pointer with a guessed PAC.
		guess := k.Img.Symbols["zero_ops"] | uint64(round+1)<<48
		k.CPU.Bus.RAM.Write64(KVAToPA(fileVA)+FileOps, guess)
		guesses++
		stop := k.Run(5_000_000)
		if stop.Kind != cpu.StopHLT {
			t.Fatalf("round %d: %+v", round, stop)
		}
		if stop.Code == HaltPanic {
			break
		}
	}
	if !k.Halted {
		t.Fatal("system did not halt under brute force")
	}
	if k.PACFailures < 3 {
		t.Fatalf("PACFailures = %d, want >= threshold 3", k.PACFailures)
	}
	if guesses > 4 {
		t.Fatalf("halt took %d guesses, threshold was 3", guesses)
	}
}

// TestCompatBuildBootsOnV80: the §5.5 backwards-compatible kernel boots
// and serves syscalls on a core without PAuth.
func TestCompatBuildBootsOnV80(t *testing.T) {
	cfg := &codegen.Config{Scheme: codegen.SchemeCamouflageCompat}
	k, err := New(Options{Config: cfg, Seed: 3, Compat: boot.ModeV80, V80: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram("compat", func(u *UserASM) {
		u.SyscallReg(SysGetppid)
		u.MovImm(insn.X1, UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 0))
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	stop := k.Run(10_000_000)
	if stop.Kind != cpu.StopHLT || stop.Code != HaltUser {
		t.Fatalf("stop = %+v", stop)
	}
}

// TestXOMKeySetterUnreadableInKernel: even EL1 cannot read the key-setter
// page (stage-2 XOM); the read faults and is logged.
func TestXOMKeySetterUnreadableInKernel(t *testing.T) {
	k := bootKernel(t, codegen.ConfigFull())
	pa, fault := k.CPU.MMU.Translate(XOMBase, 2 /* Store */, 1)
	_ = pa
	if fault == nil {
		t.Fatal("store to XOM page translated")
	}
	if _, fault = k.CPU.MMU.Translate(XOMBase, 1 /* Load */, 1); fault == nil {
		t.Fatal("load from XOM page translated")
	}
	if _, fault = k.CPU.MMU.Translate(XOMBase, 0 /* Fetch */, 1); fault != nil {
		t.Fatalf("fetch from XOM page faulted: %v", fault)
	}
}

// TestSignalDelivery covers the lmbench sig-handler path: sigaction +
// kill(self) redirects the return to the handler, sigreturn resumes.
func TestSignalDelivery(t *testing.T) {
	k := runProgram(t, codegen.ConfigFull(), func(u *UserASM) {
		u.Syscall(SysSigaction, 0) // placeholder: handler set below
		// Real handler address: we need a label VA, so load it via ADR.
		u.A.ADR(insn.X0, "handler")
		u.A.I(insn.ORRr(insn.X1, insn.XZR, insn.X0, 0))
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X1, 0))
		u.MovImm(insn.X1, 0)
		// sigaction(handler)
		u.A.I(insn.ORRr(insn.X1, insn.XZR, insn.X0, 0))
		u.SyscallReg(SysSigaction)
		// kill(self=1, SIGUSR1=10)
		u.Syscall(SysKill, 1, 10)
		// After handler + sigreturn we resume here.
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 0xAF7E)
		u.A.I(insn.STR(insn.X2, insn.X1, 8))
		u.Exit(0)
		u.A.Label("handler")
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 0x5166)
		u.A.I(insn.STR(insn.X2, insn.X1, 0))
		u.SyscallReg(SysSigreturn)
	})
	if got := userWord(k, &Task{PID: 1}, 0); got != 0x5166 {
		t.Fatalf("handler marker = %#x", got)
	}
	if got := userWord(k, &Task{PID: 1}, 8); got != 0xAF7E {
		t.Fatalf("post-handler marker = %#x", got)
	}
}
