package snapshot

import (
	"sync"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
)

// bootFull builds and boots a fully protected kernel.
func bootFull(t *testing.T, seed uint64) *kernel.Kernel {
	t.Helper()
	k, err := kernel.New(kernel.Options{Config: codegen.ConfigFull(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return k
}

// runFixture runs a syscall-heavy program to completion and returns the
// machine's observable fingerprint.
type fingerprint struct {
	Cycles, Retired uint64
	PACFailures     int
	Oops            int
	Halted          bool
	UART            string
	Heap            uint64
}

func runFixture(t *testing.T, k *kernel.Kernel) fingerprint {
	t.Helper()
	prog, err := kernel.BuildProgram("fixture", func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.CounterLoop("loop", insn.X21, 24, func() {
			u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
			u.MovImm(insn.X1, kernel.UserDataBase)
			u.MovImm(insn.X2, 64)
			u.SyscallReg(kernel.SysRead)
			u.SyscallReg(kernel.SysGetppid)
		})
		u.SyscallReg(kernel.SysClose)
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	k.Run(10_000_000)
	return fingerprint{
		Cycles:      k.CPU.Cycles,
		Retired:     k.CPU.Retired,
		PACFailures: k.PACFailures,
		Oops:        len(k.Oops),
		Halted:      k.Halted,
		UART:        k.UART.Output(),
		Heap:        k.AllocScratch(0),
	}
}

// TestForkMatchesFreshBoot: a machine forked from a post-boot snapshot
// is observably identical to a freshly built and booted one — same
// cycle/instruction counters, same heap layout, same fault log.
func TestForkMatchesFreshBoot(t *testing.T) {
	origin := bootFull(t, 42)
	snap := Take(origin)
	fork, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fresh := bootFull(t, 42)

	got := runFixture(t, fork)
	want := runFixture(t, fresh)
	if got != want {
		t.Fatalf("forked run diverges from fresh boot:\n fork:  %+v\n fresh: %+v", got, want)
	}
}

// TestTakeDoesNotPerturbOrigin: the origin machine keeps running after
// being snapshotted, and behaves exactly as an unsnapshotted machine.
func TestTakeDoesNotPerturbOrigin(t *testing.T) {
	origin := bootFull(t, 43)
	Take(origin)
	want := runFixture(t, bootFull(t, 43))
	got := runFixture(t, origin)
	if got != want {
		t.Fatalf("origin perturbed by Take:\n origin: %+v\n fresh:  %+v", got, want)
	}
}

// TestResetAfterDirtyRun: resetting a dirtied fork reproduces a pristine
// fork exactly, and reclaims the copy-on-write overlay.
func TestResetAfterDirtyRun(t *testing.T) {
	origin := bootFull(t, 44)
	snap := Take(origin)
	fork, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	want := runFixture(t, fork) // dirty it
	if fork.CPU.Bus.RAM.DirtyPages() == 0 {
		t.Fatal("fixture run dirtied no pages")
	}
	if err := snap.Reset(fork); err != nil {
		t.Fatal(err)
	}
	if n := fork.CPU.Bus.RAM.DirtyPages(); n != 0 {
		t.Fatalf("reset left %d dirty pages", n)
	}
	got := runFixture(t, fork)
	if got != want {
		t.Fatalf("reset run diverges from pristine fork:\n reset:    %+v\n pristine: %+v", got, want)
	}
}

// TestMidExecutionSnapshot: capture a machine mid-run (program spawned,
// partially executed) and check a fork resumes to the same end state as
// the origin.
func TestMidExecutionSnapshot(t *testing.T) {
	mk := func() *kernel.Kernel {
		k := bootFull(t, 45)
		prog, err := kernel.BuildProgram("mid", func(u *kernel.UserASM) {
			u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
			u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
			u.CounterLoop("loop", insn.X21, 40, func() {
				u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
				u.MovImm(insn.X1, kernel.UserDataBase)
				u.MovImm(insn.X2, 8)
				u.SyscallReg(kernel.SysRead)
			})
			u.Exit(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		k.RegisterProgram(1, prog)
		if _, err := k.Spawn(1); err != nil {
			t.Fatal(err)
		}
		k.Run(50_000) // stop mid-loop
		return k
	}

	origin := mk()
	snap := Take(origin)
	fork, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	finish := func(k *kernel.Kernel) (uint64, uint64, bool) {
		k.Run(10_000_000)
		return k.CPU.Cycles, k.CPU.Retired, k.Halted
	}
	oc, or, oh := finish(origin)
	fc, fr, fh := finish(fork)
	if oc != fc || or != fr || oh != fh {
		t.Fatalf("mid-execution fork diverges: origin (%d, %d, %v) fork (%d, %d, %v)",
			oc, or, oh, fc, fr, fh)
	}
}

// TestConcurrentForks: many goroutines forking and running from one
// snapshot produce identical results (exercised under -race).
func TestConcurrentForks(t *testing.T) {
	origin := bootFull(t, 46)
	snap := Take(origin)
	const n = 8
	prints := make([]fingerprint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fork, err := snap.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			prints[i] = runFixture(t, fork)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if prints[i] != prints[0] {
			t.Fatalf("fork %d diverges: %+v vs %+v", i, prints[i], prints[0])
		}
	}
}

// TestPoolBootsOncePerKey: repeated Acquire/Release of one key pays a
// single boot; machines from reuse and fork paths behave identically.
func TestPoolBootsOncePerKey(t *testing.T) {
	pool := NewPool()
	opts := kernel.Options{Config: codegen.ConfigBackward(), Seed: 47}
	key := KeyFor(opts)
	before := pool.Stats()

	m1, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	want := runFixture(t, m1.K)
	m1.Release()

	m2, err := pool.Acquire(key, BootOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	got := runFixture(t, m2.K)
	m2.Release()

	if got != want {
		t.Fatalf("reused machine diverges: %+v vs %+v", got, want)
	}
	m2.Release() // double release: must be a no-op, not a second park
	st := pool.Stats()
	if boots := st.Boots - before.Boots; boots != 1 {
		t.Fatalf("boots = %d, want 1", boots)
	}
	if reuses := st.Reuses - before.Reuses; reuses < 1 {
		t.Fatalf("reuses = %d, want >= 1", reuses)
	}
	if st.Idle != 1 {
		t.Fatalf("idle = %d after double release, want 1", st.Idle)
	}
}

// TestPoolConcurrentAcquire: a cold key acquired from many goroutines
// still boots exactly once, and every machine is identical.
func TestPoolConcurrentAcquire(t *testing.T) {
	pool := NewPool()
	opts := kernel.Options{Config: codegen.ConfigFull(), Seed: 48}
	key := KeyFor(opts)
	before := pool.Stats()

	const n = 6
	prints := make([]fingerprint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := pool.Acquire(key, BootOptions(opts))
			if err != nil {
				t.Error(err)
				return
			}
			prints[i] = runFixture(t, m.K)
			m.Release()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if prints[i] != prints[0] {
			t.Fatalf("pooled machine %d diverges", i)
		}
	}
	if boots := pool.Stats().Boots - before.Boots; boots != 1 {
		t.Fatalf("boots = %d, want 1", boots)
	}
}

// TestKeyForDistinguishesLevels: option sets that build different
// machines never share a pool key.
func TestKeyForDistinguishesLevels(t *testing.T) {
	keys := map[string]string{}
	for name, opts := range map[string]kernel.Options{
		"none":     {Config: codegen.ConfigNone(), Seed: 1},
		"backward": {Config: codegen.ConfigBackward(), Seed: 1},
		"full":     {Config: codegen.ConfigFull(), Seed: 1},
		"seed2":    {Config: codegen.ConfigFull(), Seed: 2},
		"thr":      {Config: codegen.ConfigFull(), Seed: 1, FailureThreshold: 64},
	} {
		k := KeyFor(opts).Digest
		if prev, dup := keys[k]; dup {
			t.Fatalf("options %q and %q collide on key %q", name, prev, k)
		}
		keys[k] = name
	}
}

// TestWarmFastPathAcrossCaptureAndReset pins the snapshot half of the
// host-pointer invalidation contract. The origin runs a full fixture
// first, so its data-side TLB is warm with host pointers into the
// pre-capture overlay. Take must invalidate them (mem.Freeze bumps the
// memory generation): if any post-capture store leaked through a stale
// pointer into the now-shared frozen base, forks taken before and after
// the origin's continued run would diverge. Reset of a dirtied fork
// must likewise kill the fork's warm pointers, or its re-run would see
// pages from the discarded overlay.
func TestWarmFastPathAcrossCaptureAndReset(t *testing.T) {
	origin := bootFull(t, 47)
	runFixture(t, origin) // warm the origin's fast path

	secondRun := func(k *kernel.Kernel) fingerprint {
		t.Helper()
		prog, err := kernel.BuildProgram("second", func(u *kernel.UserASM) {
			u.CounterLoop("loop", insn.X21, 16, func() {
				u.SyscallReg(kernel.SysGetppid)
			})
			u.Exit(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		k.RegisterProgram(2, prog)
		if _, err := k.Spawn(2); err != nil {
			t.Fatal(err)
		}
		k.Run(10_000_000)
		return fingerprint{
			Cycles:  k.CPU.Cycles,
			Retired: k.CPU.Retired,
			UART:    k.UART.Output(),
			Heap:    k.AllocScratch(0),
		}
	}

	snap := Take(origin)
	before, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	wantFP := secondRun(before)

	// The origin keeps running with pointers it warmed before capture;
	// its stores must all land in its private overlay.
	originFP := secondRun(origin)
	after, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if got := secondRun(after); got != wantFP {
		t.Fatalf("origin's post-capture run corrupted the snapshot:\n pre-fork %+v\npost-fork %+v", wantFP, got)
	}
	if originFP != wantFP {
		t.Fatalf("origin diverged from its own fork after capture:\norigin %+v\n  fork %+v", originFP, wantFP)
	}

	// Reset a dirty fork (its fast path is warm from the run above) and
	// re-run: identical to the first run or stale pointers survived.
	if err := snap.Reset(before); err != nil {
		t.Fatal(err)
	}
	if got := secondRun(before); got != wantFP {
		t.Fatalf("reset fork re-run diverged:\nwant %+v\n got %+v", wantFP, got)
	}
}

// TestSMPWarmPointerVsSiblingReset: host pointers warmed before a
// capture must not survive into (or be corrupted by) sibling-fork
// activity. The origin machine runs a workload (warming its host-pointer
// TLB into the pages that later become the shared copy-on-write base),
// is captured, and two forks proceed concurrently: fork A runs the
// fixture while fork B is repeatedly reset and re-run. Every observable
// fingerprint must match the sequential control — a warm pointer leaking
// through the shared frozen base from one machine into another (or a
// Reset tearing pages out from under a sibling) would diverge the
// fingerprints, and -race would flag any unsynchronized generation
// plumbing.
func TestSMPWarmPointerVsSiblingReset(t *testing.T) {
	origin := bootFull(t, 77)
	_ = runFixture(t, origin) // warm the origin's host pointers pre-capture
	snap := Take(origin)

	// Sequential control: what one pristine fork observes.
	control, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	want := runFixture(t, control)

	a, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var gotA fingerprint
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotA = runFixture(t, a)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			fp := runFixture(t, b)
			if fp != want {
				t.Errorf("sibling run %d diverged: %+v != %+v", i, fp, want)
				return
			}
			if err := snap.Reset(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if gotA != want {
		t.Fatalf("fork A diverged under concurrent sibling resets: %+v != %+v", gotA, want)
	}
	// The origin, whose pre-capture warm pointers referenced pages that
	// are now the shared base, must re-arm against its own overlay: its
	// rerun lands exactly where the pristine forks did (forking is
	// exact), and its post-capture writes must never have leaked through
	// the frozen base into the forks above.
	if fp := runFixture(t, origin); fp != want {
		t.Fatalf("origin rerun diverged from pristine forks: %+v != %+v", fp, want)
	}
}
