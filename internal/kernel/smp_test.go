package kernel

import (
	"fmt"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/insn"
)

// smpOptions returns full-protection build options for n vCPUs.
func smpOptions(n int, seed uint64) Options {
	cfg := codegen.ConfigFull()
	cfg.NumCPUs = n
	return Options{Config: cfg, Seed: seed}
}

func bootSMP(t *testing.T, n int, seed uint64) *Kernel {
	t.Helper()
	k, err := New(smpOptions(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyImage(k.Img); err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return k
}

// spinProg builds a user program that increments a counter in user data
// then exits after iters getppid round trips.
func spinProg(iters uint16) func(u *UserASM) {
	return func(u *UserASM) {
		u.MovImm(insn.X5, uint64(iters))
		u.A.Label("loop")
		u.SyscallReg(SysGetppid)
		u.A.I(insn.SUBi(insn.X5, insn.X5, 1))
		u.A.CBNZ(insn.X5, "loop")
		u.Exit(0)
	}
}

// TestSMPBootInstallsKeysPerCore: a 2-vCPU machine boots, and every
// core's key bank holds the bootloader's kernel keys (installed by
// secondary_start through the XOM setter, per core).
func TestSMPBootInstallsKeysPerCore(t *testing.T) {
	k := bootSMP(t, 2, 7)
	if got := k.NumCPUs(); got != 2 {
		t.Fatalf("NumCPUs = %d, want 2", got)
	}
	for i, c := range k.CPUs {
		for _, id := range []int{1, 0, 3} { // IB, IA, DB
			want := k.KernelKeysForTest().Keys[id]
			if c.Signer.Keys().Keys[id] != want {
				t.Fatalf("cpu%d key %d not installed", i, id)
			}
		}
		if c.TPIDR0 != PerCPUVA(i) {
			t.Fatalf("cpu%d TPIDR0 = %#x, want %#x", i, c.TPIDR0, PerCPUVA(i))
		}
	}
	if !k.Hyp.LockedDown() {
		t.Fatal("hypervisor not locked down after SMP boot")
	}
}

// TestSMPTwoWorkloadsRunConcurrently: tasks pinned to different cores
// both complete under the deterministic scheduler, interleaved within
// one Run call.
func TestSMPTwoWorkloadsRunConcurrently(t *testing.T) {
	k := bootSMP(t, 2, 8)
	for i := 0; i < 2; i++ {
		prog, err := BuildProgram(fmt.Sprintf("spin%d", i), spinProg(40))
		if err != nil {
			t.Fatal(err)
		}
		k.RegisterProgram(1+i, prog)
		if _, err := k.SpawnOn(i, 1+i); err != nil {
			t.Fatal(err)
		}
	}
	stop := k.Run(50_000_000)
	// The boot core's workload exits first or last; either way both
	// cores must end parked with their tasks gone.
	_ = stop
	if !k.Parked(1) {
		k.Run(50_000_000)
	}
	for i := 0; i < 2; i++ {
		if cur := k.CurrentOn(i); cur != nil && cur.State != TaskZombie {
			t.Fatalf("cpu%d task not finished: %+v", i, cur)
		}
	}
	if k.CPUs[1].Retired == 0 {
		t.Fatal("secondary core retired no instructions")
	}
}

// TestSMPDeterministicRuns: two identically seeded 2-vCPU machines,
// each running two cross-pinned workloads plus a cross-core pipe,
// finish with byte-identical cycle counters, retirement counts and RAM
// contents — the reproducibility contract of the quantum scheduler.
func TestSMPDeterministicRuns(t *testing.T) {
	run := func() (cyc [2]uint64, ret [2]uint64, heapSum uint64) {
		k := bootSMP(t, 2, 9)
		for i := 0; i < 2; i++ {
			prog, err := BuildProgram(fmt.Sprintf("d%d", i), spinProg(uint16(30+10*i)))
			if err != nil {
				t.Fatal(err)
			}
			k.RegisterProgram(1+i, prog)
			if _, err := k.SpawnOn(i, 1+i); err != nil {
				t.Fatal(err)
			}
		}
		k.Run(80_000_000)
		if !k.Parked(1) {
			k.Run(80_000_000)
		}
		for i, c := range k.CPUs {
			cyc[i], ret[i] = c.Cycles, c.Retired
		}
		// Fold a swath of kernel heap into a checksum.
		for off := uint64(0); off < 0x4000; off += 8 {
			heapSum = heapSum*31 + k.CPU.Bus.RAM.Read64(KVAToPA(HeapBase)+off)
		}
		return
	}
	c1, r1, h1 := run()
	c2, r2, h2 := run()
	if c1 != c2 || r1 != r2 || h1 != h2 {
		t.Fatalf("SMP run not deterministic:\n run1 cyc=%v ret=%v heap=%#x\n run2 cyc=%v ret=%v heap=%#x",
			c1, r1, h1, c2, r2, h2)
	}
}

// TestSMPIdleRunsAnswerHLT: once every core of an SMP machine is
// parked, each further Run answers the HLT that parked the boot core
// and retires nothing, as a uniprocessor answers a HLT every time; it
// never reports a spent budget. A fork of the parked machine, direct or
// through the wire form, answers the same.
func TestSMPIdleRunsAnswerHLT(t *testing.T) {
	for _, n := range []int{2, 8} {
		k := bootSMP(t, n, 7)
		first := k.Run(500_000_000)
		if first.Kind != cpu.StopHLT {
			t.Fatalf("%d vCPU: first run stopped with %+v, want hlt", n, first)
		}
		st := k.CaptureState()
		blob, err := st.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DeserializeState(blob, frozenPages(st))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			name string
			k    *Kernel
		}{{"machine", k}, {"fork", forkState(t, st)}, {"decoded fork", forkState(t, decoded)}} {
			for run := 2; run <= 3; run++ {
				before := retiredAll(m.k)
				stop := m.k.Run(500_000_000)
				if stop.Kind != cpu.StopHLT || stop.Code != first.Code {
					t.Errorf("%d vCPU %s, run %d: stopped with %+v, want hlt %d", n, m.name, run, stop, first.Code)
				}
				if got := retiredAll(m.k) - before; got != 0 {
					t.Errorf("%d vCPU %s, run %d: retired %d instructions, want 0", n, m.name, run, got)
				}
			}
		}
	}
}

// TestSMPUniprocessorImageUnchanged: a 1-vCPU build under the new
// options path produces byte-identical kernel text to a default build —
// the bit-compatibility guarantee behind "1-vCPU output identical to
// pre-SMP".
func TestSMPUniprocessorImageUnchanged(t *testing.T) {
	k1, err := New(Options{Config: codegen.ConfigFull(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := codegen.ConfigFull()
	cfg.NumCPUs = 1
	k2, err := New(Options{Config: cfg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []string{".text", ".xom", ".vectors", ".data"} {
		b1 := k1.Img.Sections[sec].Bytes
		b2 := k2.Img.Sections[sec].Bytes
		if string(b1) != string(b2) {
			t.Fatalf("section %s differs between default and explicit 1-vCPU build", sec)
		}
	}
}

// TestSMPCrossCorePipe: a producer on core 0 writes a pipe a consumer
// on core 1 blocks on — the cross-core wakeup path (consumer spins in
// its idle poll loop until the producer's SvcWake marks it runnable).
func TestSMPCrossCorePipe(t *testing.T) {
	k := bootSMP(t, 2, 11)

	// Producer (core 0): create the pipe, publish the read fd for the
	// consumer through a shared kernel-visible location — simplest is to
	// pre-create the pipe from the host via a producer program that
	// writes a known value after some delay.
	prod, err := BuildProgram("producer", func(u *UserASM) {
		u.Syscall(SysPipe2, UserDataBase+0x100)
		// Delay so the consumer spins first: the scheduler interleaves.
		u.CounterLoop("delay", insn.X21, 30, func() {
			u.SyscallReg(SysSchedYield)
		})
		u.MovImm(insn.X9, UserDataBase+0x100)
		u.A.I(insn.LDR(insn.X0, insn.X9, 8)) // write fd
		u.MovImm(insn.X1, UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(SysWrite)
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prod)
	if _, err := k.SpawnOn(0, 1); err != nil {
		t.Fatal(err)
	}
	// Let the producer open the pipe (fd 0 read, fd 1 write).
	k.Run(300_000)

	// The consumer on core 1 opens nothing; instead the host clones the
	// producer's read fd into the consumer's fd table after spawn (the
	// moral equivalent of fd passing).
	cons, err := BuildProgram("consumer", func(u *UserASM) {
		u.Syscall(SysRead, 0, UserDataBase+0x40, 8) // blocks until data
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(2, cons)
	consumer, err := k.SpawnOn(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	prodTask := k.CurrentOn(0)
	if prodTask == nil {
		t.Fatal("producer not running")
	}
	ram := k.CPU.Bus.RAM
	rfile := ram.Read64(KVAToPA(prodTask.Addr) + TaskFiles)
	if rfile == 0 {
		t.Fatal("producer pipe fd not open yet")
	}
	ram.Write64(KVAToPA(consumer.Addr)+TaskFiles, rfile)

	stop := k.Run(100_000_000)
	if k.CurrentOn(1) != nil && k.CurrentOn(1).State != TaskZombie && !k.Parked(1) {
		t.Fatalf("consumer never completed: stop=%+v", stop)
	}
	// The consumer must have read the producer's payload.
	got := ram.Read64(UVAToPA(consumer.PID, UserDataBase+0x40))
	want := ram.Read64(UVAToPA(prodTask.PID, UserDataBase))
	if got != want {
		t.Fatalf("cross-core pipe payload: got %#x want %#x", got, want)
	}
}

// TestSMPTaskSlotsExhaustGracefully: on an SMP machine, running out of
// task stack slots (the region above the arena holds secondary boot
// stacks) must surface as an error, never a host panic — the condition
// is guest-reachable through fork loops.
func TestSMPTaskSlotsExhaustGracefully(t *testing.T) {
	k := bootSMP(t, 2, 12)
	prog, err := BuildProgram("spin", spinProg(1))
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	failedAt := 0
	for i := 0; i < 100; i++ {
		if _, err := k.SpawnOn(0, 1); err != nil {
			failedAt = i
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("spawn never failed despite exhausting the stack arena")
	}
	if failedAt > 64 {
		t.Fatalf("spawn failed only at %d, after overrunning the arena", failedAt)
	}
}
