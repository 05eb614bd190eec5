package cpu

// Cross-CPU invalidation tests: the shared-generation (software
// shootdown) contract of DESIGN.md §9. The decoded-block cache and
// chain edges are per-CPU, but their generation cells are cluster-wide:
// a store retired on one core must kill stale blocks and sever chains
// on its peers before they can execute patched-over code.

import (
	"testing"

	"camouflage/internal/asm"
	"camouflage/internal/insn"
	"camouflage/internal/mmu"
)

// buildPeers loads one image into a shared bus and returns two cores of
// the same cluster positioned at the given entry labels.
func buildPeers(t *testing.T, build func(a *asm.Assembler)) (*CPU, *CPU, *asm.Image) {
	t.Helper()
	a := asm.New()
	build(a)
	img, err := a.Link(map[string]uint64{".text": textBase})
	if err != nil {
		t.Fatal(err)
	}
	c0 := New(Features{PAuth: true})
	for _, s := range img.Sections {
		c0.Bus.RAM.WriteBytes(s.Base, s.Bytes)
	}
	c0.SetSP(1, stackTop)
	c1 := c0.NewPeer(1)
	c1.SetSP(1, stackTop-0x8000)
	return c0, c1, img
}

// TestSMPCrossCPUStoreKillsPeerBlock: CPU 1 caches a decoded block;
// CPU 0 stores a patch into that block's page; CPU 1 must refetch and
// execute the new instruction (a per-CPU generation map would have
// served the stale block).
func TestSMPCrossCPUStoreKillsPeerBlock(t *testing.T) {
	c0, c1, img := buildPeers(t, func(a *asm.Assembler) {
		a.Label("patcher") // CPU 0: overwrite target's movz with movz x0,#7
		patch := insn.MOVZ(insn.X0, 7, 0).Encode()
		a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
		a.ADR(insn.X10, "target")
		a.I(insn.STRW(insn.X9, insn.X10, 0))
		a.I(insn.HLT(0))
		a.Label("runner") // CPU 1: call target, halt
		a.I(insn.MOVZ(insn.X0, 0, 0))
		a.BL("target")
		a.I(insn.HLT(0))
		a.Label("target")
		a.I(insn.MOVZ(insn.X0, 1, 0))
		a.I(insn.RET())
	})

	// CPU 1 executes target once: block cached on CPU 1.
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 first run: %+v", stop)
	}
	if c1.X[0] != 1 {
		t.Fatalf("cpu1 first run x0 = %d, want 1", c1.X[0])
	}

	// CPU 0 patches the code page with a guest store.
	c0.PC = img.Symbols["patcher"]
	if stop := c0.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu0 patch run: %+v", stop)
	}

	// CPU 1 re-executes: the shared cell was bumped by CPU 0's store, so
	// the stale block must not be served.
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 second run: %+v", stop)
	}
	if c1.X[0] != 7 {
		t.Fatalf("cpu1 executed stale code after peer store: x0 = %d, want 7", c1.X[0])
	}
}

// TestSMPCrossCPUStoreSeversPeerChain: CPU 1 resolves a direct chain
// edge between two blocks; CPU 0 then patches the *chained-to* block.
// Following the edge without revalidating the target's shared cell
// would execute the stale successor.
func TestSMPCrossCPUStoreSeversPeerChain(t *testing.T) {
	c0, c1, img := buildPeers(t, func(a *asm.Assembler) {
		a.Label("patcher")
		patch := insn.MOVZ(insn.X1, 9, 0).Encode()
		a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
		a.ADR(insn.X10, "succ")
		a.I(insn.STRW(insn.X9, insn.X10, 0))
		a.I(insn.HLT(0))
		a.Label("runner") // block A: direct branch to succ (chainable)
		a.I(insn.MOVZ(insn.X1, 0, 0))
		a.B("succ")
		a.Label("succ") // block B
		a.I(insn.MOVZ(insn.X1, 1, 0))
		a.I(insn.HLT(0))
	})

	// Two passes on CPU 1 so the runner→succ edge is resolved and then
	// actually followed.
	for i := 0; i < 2; i++ {
		c1.PC = img.Symbols["runner"]
		if stop := c1.Run(100); stop.Kind != StopHLT {
			t.Fatalf("cpu1 warm run %d: %+v", i, stop)
		}
	}
	if c1.ChainFollows == 0 {
		t.Fatal("chain edge never followed; test premise broken")
	}

	c0.PC = img.Symbols["patcher"]
	if stop := c0.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu0 patch run: %+v", stop)
	}

	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 post-patch run: %+v", stop)
	}
	if c1.X[1] != 9 {
		t.Fatalf("cpu1 followed a severed chain into stale code: x1 = %d, want 9", c1.X[1])
	}
}

// TestSMPPeerDecodeInvalidatesStoreMemo: CPU 0's store memo records
// "page P never held code"; CPU 1 then decodes a block from P. CPU 0's
// next store to P must notice (via the cluster cell epoch) and bump the
// generation — otherwise CPU 1 keeps executing the patched-over block.
func TestSMPPeerDecodeInvalidatesStoreMemo(t *testing.T) {
	c0, c1, img := buildPeers(t, func(a *asm.Assembler) {
		a.Label("patcher")
		patch := insn.MOVZ(insn.X0, 7, 0).Encode()
		a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
		a.ADR(insn.X10, "target")
		a.I(insn.STRW(insn.X9, insn.X10, 0)) // first store: memoizes "no code"
		a.I(insn.HLT(0))
		a.Label("patcher2")
		patch2 := insn.MOVZ(insn.X0, 8, 0).Encode()
		a.I(insn.MOVImm64(insn.X9, uint64(patch2))...)
		a.ADR(insn.X10, "target")
		a.I(insn.STRW(insn.X9, insn.X10, 0)) // second store: must see the new cell
		a.I(insn.HLT(0))
		a.Label("runner")
		a.BL("target")
		a.I(insn.HLT(0))
		// target sits on its own page: no code is decoded from it before
		// the first store, so that store memoizes a nil cell for it.
		a.PadTo(0x1000)
		a.Label("target")
		a.I(insn.MOVZ(insn.X0, 1, 0))
		a.I(insn.RET())
	})

	// CPU 0 stores to the target page before any code there was decoded:
	// its memo records a nil cell for that page.
	c0.PC = img.Symbols["patcher"]
	if stop := c0.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu0 first patch: %+v", stop)
	}

	// CPU 1 decodes and runs the (patched) target: the page becomes code
	// and the cluster's cell epoch moves.
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 run: %+v", stop)
	}
	if c1.X[0] != 7 {
		t.Fatalf("cpu1 x0 = %d, want 7 (first patch visible)", c1.X[0])
	}

	// CPU 0 stores again: its stale "no code here" memo entry must be
	// discarded via the epoch, bumping the now-existing cell.
	c0.PC = img.Symbols["patcher2"]
	if stop := c0.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu0 second patch: %+v", stop)
	}
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 rerun: %+v", stop)
	}
	if c1.X[0] != 8 {
		t.Fatalf("peer store after decode not observed: x0 = %d, want 8", c1.X[0])
	}
}

// TestSMPPeerDecodeInvalidatesStoreMemoInTrace is the same scenario
// with CPU 0's stores retiring inside a fused looping trace, whose
// inline stores read the store-cell memo in place: CPU 0 stops on its
// budget mid-trace with a nil verdict memoized for the target page, CPU
// 1 decodes from that page, and CPU 0 resumes the trace and patches
// again. The trace's first store after the resume must distrust the
// verdict (the cell epoch moved) and bump the page's new cell.
func TestSMPPeerDecodeInvalidatesStoreMemoInTrace(t *testing.T) {
	const iters = 100
	c0, c1, img := buildPeers(t, func(a *asm.Assembler) {
		a.Label("patcher") // CPU 0: iteration i stores movz x0,#i at target
		a.I(insn.MOVImm64(insn.X9, uint64(insn.MOVZ(insn.X0, 0, 0).Encode()))...)
		a.ADR(insn.X10, "target")
		a.I(insn.MOVZ(insn.X11, 1<<5, 0)) // +1 in the MOVZ imm16 field
		a.I(insn.MOVZ(insn.X5, iters, 0))
		a.Label("loop")
		a.I(insn.ADDr(insn.X9, insn.X9, insn.X11))
		a.I(insn.STRW(insn.X9, insn.X10, 0))
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))
		a.Label("runner") // CPU 1
		a.BL("target")
		a.I(insn.HLT(0))
		// target sits on its own page: no code is decoded from it before
		// CPU 0's stores, so they memoize a nil cell for it.
		a.PadTo(0x1000)
		a.Label("target")
		a.I(insn.MOVZ(insn.X0, 1, 0))
		a.I(insn.RET())
	})

	// Map the image flat and writable with the MMU on, so the trace's
	// stores take its inline host-pointer path (TT1 is shared).
	c0.MMU.Enabled, c1.MMU.Enabled = true, true
	for off := uint64(0); off < 0x2000; off += mmu.PageSize {
		c0.MMU.TT1.Map(textBase+off, textBase+off, mmu.KernelText|mmu.W1)
	}

	// CPU 0 runs the prologue and 40 iterations, stopping on its budget
	// at the loop head with the looping trace warm.
	const done = 40
	prologue := (img.Symbols["loop"] - img.Symbols["patcher"]) / insn.Size
	c0.PC = img.Symbols["patcher"]
	if stop := c0.Run(prologue + 4*done); stop.Kind != StopLimit {
		t.Fatalf("cpu0 first run: %+v", stop)
	}
	if c0.PC != img.Symbols["loop"] || c0.TraceFollows == 0 || c0.LiveTraces() == 0 {
		t.Fatalf("cpu0 stopped at %#x with TraceFollows = %d, LiveTraces = %d; want the loop head mid-trace",
			c0.PC, c0.TraceFollows, c0.LiveTraces())
	}

	// CPU 1 decodes and runs the patched target: the page becomes code
	// and the cluster's cell epoch moves.
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 run: %+v", stop)
	}
	if c1.X[0] != done {
		t.Fatalf("cpu1 x0 = %d, want %d (the patch CPU 0 stored last)", c1.X[0], done)
	}

	// CPU 0 resumes inside its trace and patches the rest of the way.
	follows := c0.TraceFollows
	if stop := c0.Run(10_000); stop.Kind != StopHLT {
		t.Fatalf("cpu0 resume: %+v", stop)
	}
	if c0.TraceFollows == follows {
		t.Fatal("cpu0 resumed outside its trace; test premise broken")
	}
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu1 rerun: %+v", stop)
	}
	if c1.X[0] != iters {
		t.Fatalf("in-trace store after a peer decode not observed: x0 = %d, want %d", c1.X[0], iters)
	}
}

// TestSMPSharedMemGenInvalidatesPeerHostPointer: two cores share one
// Phys; a copy-on-write materialization caused by core 0 must kill the
// warm host pointer core 1 holds for the same page (shared memGen).
func TestSMPSharedMemGenInvalidatesPeerHostPointer(t *testing.T) {
	c0, c1, img := buildPeers(t, func(a *asm.Assembler) {
		a.Label("entry")
		a.I(insn.HLT(0))
	})
	_ = img
	// Warm a load host pointer on core 1 through its MMU... requires
	// stage-1 mappings; exercise via the shared bus directly instead:
	// the generation is one cell on the shared Phys.
	g := c1.Bus.RAM.Gen()
	c0.Bus.RAM.Freeze() // snapshot-style event through core 0's view
	if c1.Bus.RAM.Gen() == g {
		t.Fatal("peer did not observe the shared memory-generation bump")
	}
}
