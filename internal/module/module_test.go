package module

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/pac"
)

func bootFull(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, err := kernel.New(kernel.Options{Config: codegen.ConfigFull(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return k
}

// buildEchoDriver builds a module exporting a driver whose read fills the
// buffer with a constant byte, including a DECLARE_WORK-style statically
// initialised function pointer.
func buildEchoDriver(cfg *codegen.Config) *Image {
	b := NewBuilder("echo", cfg)
	a := b.A

	// Driver read: fill buffer with 0x55.
	a.Label("echo_read")
	cfg.Prologue(a, "echo_read")
	a.I(insn.MOVImm64(insn.X9, 0x5555555555555555)...)
	a.I(insn.ORRr(insn.X10, insn.XZR, insn.X2, 0))
	a.Label("echo_read.loop")
	a.I(insn.MOVZ(insn.X11, 8, 0))
	a.I(insn.CMP(insn.X10, insn.X11))
	a.Bcond(insn.CC, "echo_read.done")
	a.I(insn.STR(insn.X9, insn.X1, 0))
	a.I(insn.ADDi(insn.X1, insn.X1, 8))
	a.I(insn.SUBi(insn.X10, insn.X10, 8))
	a.B("echo_read.loop")
	a.Label("echo_read.done")
	a.I(insn.ORRr(insn.X0, insn.XZR, insn.X2, 0))
	cfg.Epilogue(a, "echo_read")

	a.Label("echo_trivial")
	a.I(insn.MOVZ(insn.X0, 0, 0))
	a.I(insn.RET())

	// A module work handler referenced by a static work_struct.
	a.Label("echo_work")
	a.I(insn.MOVZ(insn.X0, 7, 0))
	a.I(insn.RET())

	// Data: ops table (module data is writable, so under full protection
	// a real deployment would place this in .rodata; keeping it in data
	// exercises the signed static-pointer path) and the work object.
	a.Section(".moddata")
	a.Label("echo_ops")
	a.QuadAddr("echo_trivial", 0) // open
	a.QuadAddr("echo_trivial", 0) // release
	a.QuadAddr("echo_read", 0)    // read
	a.QuadAddr("echo_trivial", 0) // write
	a.QuadAddr("echo_trivial", 0) // poll

	a.Label("echo_static_work")
	a.QuadAddr("echo_work", 0)
	a.Quad(0)

	b.AddPauthEntry(PauthEntry{
		SlotLabel:      "echo_static_work",
		SlotOff:        0,
		ObjLabel:       "echo_static_work",
		InstructionKey: true,
		TypeConst:      pac.TypeConst("work_struct", "func"),
	})
	b.ExportDriver(77, "echo_ops")
	return b.Build()
}

func TestLoadModuleAndUseDriver(t *testing.T) {
	k := bootFull(t)
	img := buildEchoDriver(k.Cfg)
	loaded, err := Load(k, img)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Symbols["echo_read"] == 0 {
		t.Fatal("echo_read symbol missing")
	}

	// Open the module's device from user space and read through the
	// authenticated f_ops path.
	prog, err := kernel.BuildProgram("use-echo", func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, 77, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, kernel.UserDataBase)
		u.MovImm(insn.X2, 32)
		u.SyscallReg(kernel.SysRead)
		u.MovImm(insn.X1, kernel.UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 32))
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	stop := k.Run(20_000_000)
	if stop.Kind != cpu.StopHLT {
		t.Fatalf("stop = %+v", stop)
	}
	pa := kernel.UVAToPA(1, kernel.UserDataBase)
	if got := k.CPU.Bus.RAM.Read64(pa); got != 0x5555555555555555 {
		t.Fatalf("driver read produced %#x", got)
	}
	if got := k.CPU.Bus.RAM.Read64(pa + 32); got != 32 {
		t.Fatalf("driver read returned %d", got)
	}
	if k.CPU.PACFailures != 0 {
		t.Fatalf("PAC failures during module driver use: %d", k.CPU.PACFailures)
	}
}

// TestLoadedModuleNotPortable: a loaded module registers its driver's
// ops with the kernel, state no snapshot file holds, so the state
// codec refuses the machine, naming them.
func TestLoadedModuleNotPortable(t *testing.T) {
	k := bootFull(t)
	if _, err := Load(k, buildEchoDriver(k.Cfg)); err != nil {
		t.Fatal(err)
	}
	_, err := k.CaptureState().Serialize()
	if !errors.Is(err, kernel.ErrStateNotPortable) || !strings.Contains(err.Error(), "holds driver ops") {
		t.Fatalf("Serialize after a module load = %v, want ErrStateNotPortable naming driver ops", err)
	}
}

func TestModuleStaticPointerSignedAtLoad(t *testing.T) {
	k := bootFull(t)
	img := buildEchoDriver(k.Cfg)
	loaded, err := Load(k, img)
	if err != nil {
		t.Fatal(err)
	}
	slot := loaded.Symbols["echo_static_work"]
	raw := loaded.Symbols["echo_work"]
	stored := k.CPU.Bus.RAM.Read64(kernel.KVAToPA(slot))
	if stored == raw {
		t.Fatal("module static pointer left unsigned at load (§4.6)")
	}
	got, ok := SignedPtrAuthenticates(k, slot, slot,
		pac.TypeConst("work_struct", "func"), true)
	if !ok || got != raw {
		t.Fatalf("module pointer does not authenticate: (%#x, %v)", got, ok)
	}
}

func TestModuleUnsignedWhenUnprotected(t *testing.T) {
	k, err := kernel.New(kernel.Options{Config: codegen.ConfigNone(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	img := buildEchoDriver(k.Cfg)
	loaded, err := Load(k, img)
	if err != nil {
		t.Fatal(err)
	}
	slot := loaded.Symbols["echo_static_work"]
	if got := k.CPU.Bus.RAM.Read64(kernel.KVAToPA(slot)); got != loaded.Symbols["echo_work"] {
		t.Fatalf("baseline module pointer signed: %#x", got)
	}
}

// TestMaliciousKeyReaderRejected is the §4.1/§6.2.2 gate: a module
// containing an MRS from a key register is rejected at load.
func TestMaliciousKeyReaderRejected(t *testing.T) {
	k := bootFull(t)
	b := NewBuilder("spy", k.Cfg)
	a := b.A
	a.Label("spy_init")
	a.I(insn.MRS(insn.X0, insn.APIBKeyLo_EL1)) // steal the CFI key
	a.I(insn.RET())
	if _, err := Load(k, b.Build()); err == nil {
		t.Fatal("key-reading module accepted")
	} else if !strings.Contains(err.Error(), "PAuth key read") {
		t.Fatalf("wrong rejection reason: %v", err)
	}
}

// TestSCTLRTamperingModuleRejected: a module trying to clear the PAuth
// enable bits is rejected.
func TestSCTLRTamperingModuleRejected(t *testing.T) {
	k := bootFull(t)
	b := NewBuilder("tamper", k.Cfg)
	a := b.A
	a.Label("tamper_init")
	a.I(insn.MOVZ(insn.X0, 0, 0))
	a.I(insn.MSR(insn.SCTLR_EL1, insn.X0))
	a.I(insn.RET())
	if _, err := Load(k, b.Build()); err == nil {
		t.Fatal("SCTLR-writing module accepted")
	} else if !strings.Contains(err.Error(), "SCTLR_EL1 write") {
		t.Fatalf("wrong rejection reason: %v", err)
	}
}

// TestKeyWritingModuleRejected: only the XOM setter may install keys.
func TestKeyWritingModuleRejected(t *testing.T) {
	k := bootFull(t)
	b := NewBuilder("keywriter", k.Cfg)
	a := b.A
	a.Label("kw_init")
	a.I(insn.MOVZ(insn.X0, 0xBAD, 0))
	a.I(insn.MSR(insn.APIAKeyLo_EL1, insn.X0))
	a.I(insn.RET())
	if _, err := Load(k, b.Build()); err == nil {
		t.Fatal("key-writing module accepted")
	}
}

func TestTwoModulesGetDistinctRanges(t *testing.T) {
	k := bootFull(t)
	m1, err := Load(k, buildEchoDriver(k.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("second", k.Cfg)
	b.A.Label("second_fn")
	b.A.I(insn.RET())
	m2, err := Load(k, b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if m1.TextBase == m2.TextBase {
		t.Fatal("modules share a load address")
	}
}

// TestFailedLoadRegistersNoDriver: a module exporting one defined and
// two undefined ops labels fails every load with the error naming the
// first undefined label in path-ID order, and registers none of its
// drivers, so the state codec still accepts the kernel as a booted
// machine's.
func TestFailedLoadRegistersNoDriver(t *testing.T) {
	k := bootFull(t)
	b := NewBuilder("partial", k.Cfg)
	b.A.Label("defined_ops")
	b.A.I(insn.RET())
	b.ExportDriver(90, "defined_ops")
	b.ExportDriver(91, "missing_ops")
	b.ExportDriver(92, "absent_ops")
	img := b.Build()
	for i := 0; i < 20; i++ {
		_, err := Load(k, img)
		if err == nil || err.Error() != `module partial: exported ops label "missing_ops" undefined` {
			t.Fatalf("load %d: err = %v, want the undefined missing_ops label", i, err)
		}
	}
	if _, err := k.CaptureState().Serialize(); err != nil {
		t.Fatalf("failed loads left kernel state behind: %v", err)
	}
}

// TestRefusedLoadLeavesStateUnchanged: a load refused at link, at the
// §4.1 gate or at the exported-label check takes no module address
// space, so the booted machine's state serializes to the same bytes
// before and after it.
func TestRefusedLoadLeavesStateUnchanged(t *testing.T) {
	k := bootFull(t)
	before, err := k.CaptureState().Serialize()
	if err != nil {
		t.Fatal(err)
	}

	undefinedOps := NewBuilder("undefined-ops", k.Cfg)
	undefinedOps.A.Label("undefined_init")
	undefinedOps.A.I(insn.RET())
	undefinedOps.ExportDriver(90, "missing_ops")

	keyReader := NewBuilder("key-reader", k.Cfg)
	keyReader.A.Label("spy_init")
	keyReader.A.I(insn.MRS(insn.X0, insn.APIBKeyLo_EL1))
	keyReader.A.I(insn.RET())

	unresolved := NewBuilder("unresolved", k.Cfg)
	unresolved.A.Label("unresolved_init")
	unresolved.A.BL("no_such_symbol")
	unresolved.A.I(insn.RET())

	for _, c := range []struct {
		b    *Builder
		want string
	}{
		{undefinedOps, `exported ops label "missing_ops" undefined`},
		{keyReader, "PAuth key read"},
		{unresolved, "link"},
	} {
		if _, err := Load(k, c.b.Build()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Load(%s) = %v, want a refusal naming %q", c.b.name, err, c.want)
		}
	}
	after, err := k.CaptureState().Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused module loads changed the serialized kernel state")
	}
}
