package camouflage

// The benchmark harness: the trajectory benchmarks that cmd/benchgate's
// gate rows read (ExecThroughput, MemFastPath, ForkVsBoot, WarmStart,
// ObsOverhead, FaultOverhead), and nothing else. Per-layer costs (QARMA,
// PAC signing, boot, the SVC round trip) are perfbench's probes
// (qarma.encrypt_ns, pac.sign_ns, kernel.boot_ms, kernel.svc_ns.*),
// one measurement per layer. The paper's tables and figures are
// regenerated and checked by the figures tests (TestAllExperimentsRun)
// and timed per experiment by the repo benchmark in perfbench/, so they
// have no benchmark here either.
//
// Run everything with:
//
//	go test -run '^$' -bench=. -benchmem

import (
	"io"
	"testing"
	"time"

	"camouflage/internal/core"
	"camouflage/internal/fault"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
	"camouflage/internal/store"
)

// BenchmarkExecThroughput measures end-to-end simulator throughput
// (simulated instructions per host second) on a representative mixed
// workload — user ALU blocks, function calls and a getppid round trip
// per iteration — under LevelNone and LevelFull. The "baseline" variants
// disable the fast-path pipeline (decoded basic-block cache + software
// TLB), reverting to the seed's per-word decode map and map-based
// translation, so the speedup is measured rather than asserted (see
// DESIGN.md §5 for the recorded numbers).
func BenchmarkExecThroughput(b *testing.B) {
	levels := []struct {
		name  string
		level ProtectionLevel
	}{
		{"none", LevelNone},
		{"full", LevelFull},
	}
	modes := []struct {
		name     string
		baseline bool
		cpus     int
	}{
		{"fastpath", false, 1},
		{"baseline", true, 1},
		// fastpath-2cpu drives the deterministic SMP scheduler: the same
		// mix pinned to both cores of a 2-vCPU machine, budget split by
		// round-robin quanta. Guards the scheduler + shared-generation
		// overhead on top of the 1-vCPU fast path.
		{"fastpath-2cpu", false, 2},
	}
	for _, lv := range levels {
		for _, mode := range modes {
			lv, mode := lv, mode
			b.Run(lv.name+"/"+mode.name, func(b *testing.B) {
				systems, err := ReplicateSystems(lv.level, Options{Seed: 3, CPUs: mode.cpus}, 1)
				if err != nil {
					b.Fatal(err)
				}
				sys := systems[0]
				spawnMix(b, sys, mode.cpus)
				c := sys.Kernel.CPU
				c.NoBlockCache = mode.baseline
				c.MMU.NoTLB = mode.baseline
				c.InvalidateDecode()
				b.ResetTimer()
				sys.Kernel.Run(uint64(b.N))
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
			})
		}
	}
}

// spawnMix starts the ExecThroughput mix on each of sys's first cpus
// cores: four ADDi/EORr pairs, a getppid round trip, then SUBi/CBNZ
// back to the top, with a count that makes the loop effectively endless.
func spawnMix(tb testing.TB, sys *System, cpus int) {
	tb.Helper()
	for cpuID := 0; cpuID < cpus; cpuID++ {
		prog, err := kernel.BuildProgram("mix", func(u *kernel.UserASM) {
			u.MovImm(insn.X5, 1<<40)
			u.A.Label("loop")
			for i := 0; i < 4; i++ {
				u.A.I(insn.ADDi(insn.X6, insn.X6, 3))
				u.A.I(insn.EORr(insn.X7, insn.X7, insn.X6))
			}
			u.SyscallReg(kernel.SysGetppid)
			u.A.I(insn.SUBi(insn.X5, insn.X5, 1))
			u.A.CBNZ(insn.X5, "loop")
			u.Exit(0)
		})
		if err != nil {
			tb.Fatal(err)
		}
		sys.Kernel.RegisterProgram(1+cpuID, prog)
		if _, err := sys.Kernel.SpawnOn(cpuID, 1+cpuID); err != nil {
			tb.Fatal(err)
		}
	}
}

// runNoneMix times b.N instructions of the mix on a LevelNone
// uniprocessor: the measured body of both sides of the ObsOverhead and
// FaultOverhead A/B pairs.
func runNoneMix(b *testing.B) {
	systems, err := ReplicateSystems(LevelNone, Options{Seed: 3}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := systems[0]
	spawnMix(b, sys, 1)
	b.ResetTimer()
	sys.Kernel.Run(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkObsOverhead is the A/B cost measurement for the counter
// registry (DESIGN.md §11): the none/fastpath ExecThroughput mix run
// quiet, then again while a scraper goroutine continuously renders the
// Prometheus exposition and takes JSON snapshots. The hot path only
// bumps per-core plain cells and flushes at Run exit, so the scraped
// variant's ns/op must stay within a small budget of the quiet one —
// cmd/benchgate's obs-overhead row gates the ratio.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("quiet", runNoneMix)
	b.Run("scraped", func(b *testing.B) {
		// Scrape at a 10ms cadence — already ~three orders of magnitude
		// hotter than a real Prometheus interval — rather than in a busy
		// loop, which on a small host would measure core contention with
		// the spinning scraper instead of the registry's cost.
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if err := obs.WritePrometheus(io.Discard); err != nil {
					b.Error(err)
					return
				}
				obs.TakeSnapshot()
			}
		}()
		runNoneMix(b)
		close(stop)
		<-done
	})
}

// BenchmarkFaultOverhead is the A/B cost measurement for the fault
// injection layer (DESIGN.md §13): the none/fastpath ExecThroughput mix
// run with faults disabled (the production state — one atomic pointer
// load per injection point, all of them off the instruction loop), then
// again with a registry armed on store/pool points that never fire
// during execution. The armed variant's ns/op must stay within a small
// budget of the disabled one — cmd/benchgate's fault-overhead row
// gates the ratio, so injection points can never creep into the hot
// path unnoticed.
func BenchmarkFaultOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		prev := fault.Active()
		fault.Disable()
		defer fault.Install(prev)
		runNoneMix(b)
	})
	b.Run("armed", func(b *testing.B) {
		r, err := fault.ParseSpec("seed=1,store.chunk.read=all,pool.boot=all,client.reset=all")
		if err != nil {
			b.Fatal(err)
		}
		prev := fault.Active()
		fault.Install(r)
		defer fault.Install(prev)
		runNoneMix(b)
	})
}

// BenchmarkMemFastPath measures the data-side fast path on a load/store-
// heavy guest loop (pair and single loads/stores over a small working
// set). The "hostptr" variant runs the host-pointer TLB path; "buspath"
// disables only host-pointer caching (MMU.NoHostPtr), so every access
// still hits the TLB but pays translation bookkeeping plus bus routing
// and the page-map lookup — isolating exactly what the pointer cache
// buys. cmd/benchgate's host-pointer row enforces a floor on the
// buspath/hostptr ratio.
func BenchmarkMemFastPath(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noHost bool
	}{
		{"hostptr", false},
		{"buspath", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			systems, err := ReplicateSystems(LevelNone, Options{Seed: 13}, 1)
			if err != nil {
				b.Fatal(err)
			}
			sys := systems[0]
			prog, err := kernel.BuildProgram("memmix", func(u *kernel.UserASM) {
				u.MovImm(insn.X8, kernel.UserDataBase)
				u.MovImm(insn.X5, 1<<40) // effectively endless
				u.A.Label("loop")
				for i := 0; i < 4; i++ {
					off := uint16(i * 16)
					u.A.I(insn.STP(insn.X6, insn.X7, insn.X8, int16(off)))
					u.A.I(insn.LDP(insn.X9, insn.X10, insn.X8, int16(off)))
					u.A.I(insn.STR(insn.X9, insn.X8, off+64))
					u.A.I(insn.LDR(insn.X6, insn.X8, off+64))
				}
				u.A.I(insn.SUBi(insn.X5, insn.X5, 1))
				u.A.CBNZ(insn.X5, "loop")
				u.Exit(0)
			})
			if err != nil {
				b.Fatal(err)
			}
			sys.Kernel.RegisterProgram(1, prog)
			if _, err := sys.Kernel.Spawn(1); err != nil {
				b.Fatal(err)
			}
			c := sys.Kernel.CPU
			c.MMU.NoHostPtr = mode.noHost
			c.MMU.InvalidateTLBAll()
			b.ResetTimer()
			sys.Kernel.Run(uint64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// BenchmarkForkVsBoot measures machine-supply cost for a short workload
// three ways: the full build+verify+boot pipeline per repetition
// (baseline), a copy-on-write Fork from a warm snapshot per repetition,
// and Reset of one dirtied machine per repetition. Fork and Reset are
// the paths the warm pool, the experiment cell loop and the attack
// campaign take; the acceptance floor (fork+run ≥ 5x faster than
// boot+run) is pinned by TestForkAtLeast5xFasterThanBoot.
func BenchmarkForkVsBoot(b *testing.B) {
	// The same short workload and run helper the acceptance test
	// (TestForkAtLeast5xFasterThanBoot) measures, so the benchmark and
	// the pinning test can never drift apart.
	prog, err := kernel.BuildProgram("short", shortWorkload)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sys *System) { runShortOn(b, sys, prog) }
	b.Run("boot+run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := NewSystem(LevelFull, Options{Seed: 81})
			if err != nil {
				b.Fatal(err)
			}
			run(b, sys)
		}
	})
	b.Run("fork+run", func(b *testing.B) {
		origin, err := NewSystem(LevelFull, Options{Seed: 81})
		if err != nil {
			b.Fatal(err)
		}
		snap := origin.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys, err := snap.Fork()
			if err != nil {
				b.Fatal(err)
			}
			run(b, sys)
		}
	})
	b.Run("reset+run", func(b *testing.B) {
		origin, err := NewSystem(LevelFull, Options{Seed: 81})
		if err != nil {
			b.Fatal(err)
		}
		snap := origin.Snapshot()
		sys, err := snap.Fork()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := snap.Reset(sys); err != nil {
				b.Fatal(err)
			}
			run(b, sys)
		}
	})
}

// warmStartBatch is how many machines one BenchmarkWarmStart iteration
// supplies. A store load is an amortized cost: one verified load re-arms
// a pool key for every fork that follows, the way a restarted daemon or
// a warm cmd/experiments run consumes it. A single machine would hide
// that economics — load pays the same image rebuild + §4.1 verification
// boot pays, plus chunk hashing, and only wins by skipping the boot
// instruction stream — so the benchmark measures a restart serving a
// small batch, the store's actual unit of use.
const warmStartBatch = 8

// BenchmarkWarmStart measures what a restarted process pays to supply
// its first warmStartBatch machines: boot+run re-runs the full
// build+verify+boot pipeline for every machine (a store-less restart);
// load+fork+run opens the store a previous process populated, pays one
// verified load — whole-snapshot SHA-256 check, state deserialization,
// image rebuild — and forks the rest copy-on-write. Every iteration
// opens a fresh Store handle so the memoized-load fast path never
// fires: the number reported is the honest cold-restart cost. The
// committed floor (benchgate's warm-start row) pins the advantage.
func BenchmarkWarmStart(b *testing.B) {
	prog, err := kernel.BuildProgram("short", shortWorkload)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sys *System) { runShortOn(b, sys, prog) }

	// Populate the store once — the "previous process" that booted this
	// configuration and persisted it. Same options as boot+run below, so
	// both sides supply identical machines.
	dir := b.TempDir()
	kopts := core.KernelOptionsFor(LevelFull, Options{Seed: 81})
	key := snapshot.KeyFor(kopts)
	seedStore, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	k, err := snapshot.BootOptions(kopts)()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seedStore.Save(key, snapshot.Take(k)); err != nil {
		b.Fatal(err)
	}

	b.Run("boot+run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < warmStartBatch; j++ {
				sys, err := NewSystem(LevelFull, Options{Seed: 81})
				if err != nil {
					b.Fatal(err)
				}
				run(b, sys)
			}
		}
	})
	b.Run("load+fork+run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			snap, _, err := st.Load(key)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < warmStartBatch; j++ {
				kern, err := snap.Fork()
				if err != nil {
					b.Fatal(err)
				}
				run(b, &System{Kernel: kern, Level: LevelFull})
			}
		}
	})
}
