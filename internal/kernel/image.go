package kernel

import (
	"camouflage/internal/asm"
	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/insn"
	"camouflage/internal/pac"
)

// Type·member constants for the protected pointer fields (§4.3, §5.3).
var (
	tcFileOps  = pac.TypeConst("file", "f_ops")
	tcFileCred = pac.TypeConst("file", "f_cred")
	tcTaskSP   = pac.TypeConst("task_struct", "thread.sp")
	tcWorkFunc = pac.TypeConst("work_struct", "func")
)

// activeKeys returns the kernel keys a build actually switches (§6.1.1:
// full protection uses three keys; backward-edge only needs IB).
func activeKeys(cfg *codegen.Config) []pac.KeyID {
	if cfg.Scheme == codegen.SchemeNone {
		return nil
	}
	if cfg.ForwardCFI || cfg.DFI {
		return []pac.KeyID{pac.KeyIB, pac.KeyIA, pac.KeyDB}
	}
	return []pac.KeyID{pac.KeyIB}
}

// taskKeySlot maps a KeyID to its offset inside thread_struct.keys.
func taskKeySlot(id pac.KeyID) uint16 {
	return uint16(TaskKeys + 16*int(id))
}

// buildImage assembles the complete kernel. The caller links it at the
// layout.go bases and loads the sections into RAM.
func buildImage(cfg *codegen.Config, keys pac.KeySet, mode boot.Compat) *asm.Assembler {
	a := asm.New()
	protected := cfg.Scheme != codegen.SchemeNone

	// ---- .xom: the key-setter (§5.1) ----
	a.Section(".xom")
	boot.EmitKeySetter(a, "key_setter", keys, mode, activeKeys(cfg)...)

	// ---- .vectors ----
	a.Section(".vectors")
	a.Label("vectors")
	a.PadTo(0x200)
	a.B("el1_sync") // sync from current EL (kernel faults, PAC failures)
	a.PadTo(0x280)
	a.I(insn.HLT(0xE2)) // IRQ from current EL: unused in this model
	a.PadTo(0x400)
	a.B("el0_sync") // sync from EL0: syscalls and user faults
	a.PadTo(0x480)
	a.I(insn.HLT(0xE5)) // IRQ from EL0: unused (cooperative scheduling)

	// ---- .text ----
	a.Section(".text")
	emitStartKernel(a, cfg, protected)
	emitEL0Sync(a, cfg, protected, mode)
	emitEL1Sync(a, cfg)
	emitSwitchTo(a, cfg)
	emitSyscalls(a, cfg)
	emitDrivers(a, cfg)

	// ---- .rodata: syscall table and operations structures (§4.4) ----
	a.Section(".rodata")
	emitRodata(a)

	// ---- .data: per-CPU block, pauth table, static work ----
	a.Section(".data")
	emitData(a, cfg)

	return a
}

// emitMov64 materialises an absolute constant.
func emitMov64(a *asm.Assembler, rd insn.Reg, v uint64) {
	a.I(insn.MOVImm64(rd, v)...)
}

// emitPerCPUAddr loads the executing core's per-CPU frame VA into rd.
// Uniprocessor builds materialise the absolute address, keeping the
// image bit-identical to pre-SMP kernels; SMP builds read TPIDR_EL0,
// which the host loads with DataBase+PerCPUOffset+cpu*PerCPUSize at CPU
// construction (the model's stand-in for arm64 Linux keeping the
// per-CPU offset in a thread register — TPIDR_EL1 here already carries
// `current`).
func emitPerCPUAddr(a *asm.Assembler, cfg *codegen.Config, rd insn.Reg) {
	if cfg.CPUs() > 1 {
		a.I(insn.MRS(rd, insn.TPIDR_EL0))
		return
	}
	emitMov64(a, rd, DataBase+PerCPUOffset)
}

// emitServiceCall invokes the host service device: code goes to the
// doorbell; arguments must already be in the per-CPU slots. Clobbers x12
// and x13. SMP images ring a per-CPU doorbell slot (SvcBase + cpu*8,
// the core number from MPIDR_EL1.Aff0), which names the ringing core to
// the host service layer; 1-vCPU images keep the plain offset-0 store
// and stay bit-identical to pre-SMP builds.
func emitServiceCall(a *asm.Assembler, cfg *codegen.Config, code uint64) {
	emitMov64(a, insn.X12, SvcBase)
	if cfg.CPUs() > 1 {
		a.I(insn.MRS(insn.X13, insn.MPIDR_EL1))
		a.I(insn.UBFX(insn.X13, insn.X13, 0, 8)) // Aff0: core number
		a.I(insn.LSLi(insn.X13, insn.X13, 3))
		a.I(insn.ADDr(insn.X12, insn.X12, insn.X13))
	}
	a.I(insn.MOVZ(insn.X13, uint16(code), 0))
	a.I(insn.STR(insn.X13, insn.X12, 0))
}

// emitStartKernel emits the early-boot entry: install kernel keys, sign
// the statically initialised pointers (§4.6), then report boot complete.
func emitStartKernel(a *asm.Assembler, cfg *codegen.Config, protected bool) {
	a.Label("start_kernel")
	if protected {
		a.BL("key_setter")
	}
	if cfg.DFI || cfg.ForwardCFI {
		emitMov64(a, insn.X10, DataBase+PauthTableOffset)
		a.BL("sign_ptr_table")
	}
	a.I(insn.HLT(HaltBootOK))

	// secondary_start is the boot path of every non-boot core (SMP
	// builds only): install the kernel keys from the XOM setter — key
	// registers are strictly per-core state, exactly as on hardware —
	// then report in and park until the host scheduler dispatches work.
	if cfg.CPUs() > 1 {
		a.Label("secondary_start")
		if protected {
			a.BL("key_setter")
		}
		a.I(insn.HLT(HaltSecondaryOK))
	}

	// host_call_stub lets the host invoke a guest function (module
	// loading, benchmarks): x16 = target, x0.. = arguments.
	a.Label("host_call_stub")
	a.I(insn.BLR(insn.X16))
	a.I(insn.HLT(HaltHostCall))

	// sign_ptr_table walks a .pauth_ptrs table at x10 (§4.6): for each
	// entry {slot, obj, key, tc}, sign *slot in place with the object
	// modifier. Used for the built-in table at early boot and for each
	// loadable module's table at load time ("an equivalent procedure is
	// applied when loading an LKM").
	a.Label("sign_ptr_table")
	a.I(insn.LDR(insn.X11, insn.X10, 0)) // entry count
	a.I(insn.ADDi(insn.X10, insn.X10, 8))
	a.Label("ssp_loop")
	a.CBZ(insn.X11, "ssp_done")
	a.I(insn.LDR(insn.X12, insn.X10, PauthEntrySlot))
	a.I(insn.LDR(insn.X13, insn.X10, PauthEntryObj))
	a.I(insn.LDR(insn.X14, insn.X10, PauthEntryKey))
	a.I(insn.LDR(insn.X15, insn.X10, PauthEntryTC))
	a.I(insn.LDR(insn.X0, insn.X12, 0)) // raw pointer value
	// modifier: tc | obj<<16 (mov w9,tc is dynamic here: use BFI twice).
	a.I(insn.ORRr(insn.X9, insn.XZR, insn.X15, 0))
	a.I(insn.BFI(insn.X9, insn.X13, 16, 48))
	a.CBNZ(insn.X14, "ssp_insn")
	a.I(insn.PACDB(insn.X0, insn.X9))
	a.B("ssp_store")
	a.Label("ssp_insn")
	a.I(insn.PACIA(insn.X0, insn.X9))
	a.Label("ssp_store")
	a.I(insn.STR(insn.X0, insn.X12, 0))
	a.I(insn.ADDi(insn.X10, insn.X10, PauthEntrySize))
	a.I(insn.SUBi(insn.X11, insn.X11, 1))
	a.B("ssp_loop")
	a.Label("ssp_done")
	a.I(insn.RET())
}

// Halt codes reported through HLT.
const (
	HaltBootOK = 0x0001 // start_kernel finished
	HaltIdle   = 0x0002 // no runnable task left
	HaltPanic  = 0x00DD // brute-force threshold exceeded (§5.4)
	HaltNoNext = 0x00DC // fault with no task to switch to
	HaltUser   = 0x0000 // user workload completed
	// HaltHostCall marks the return of a host-initiated guest call.
	HaltHostCall = 0x0004
	// HaltSecondaryOK marks a secondary core's boot path (key install)
	// completing; the core then parks until the host dispatches work.
	HaltSecondaryOK = 0x0005
)

// emitEL0Sync emits the kernel entry/exit path (§3.3, §6.1.1): save the
// trap frame, install kernel keys, dispatch, restore user keys, return.
func emitEL0Sync(a *asm.Assembler, cfg *codegen.Config, protected bool, mode boot.Compat) {
	a.Label("el0_sync")
	// kernel_entry: push pt_regs.
	a.I(insn.SUBi(insn.SP, insn.SP, PtRegsSize))
	for r := 0; r < 30; r += 2 {
		a.I(insn.STP(insn.Reg(r), insn.Reg(r+1), insn.SP, int16(8*r)))
	}
	a.I(insn.STR(insn.X30, insn.SP, 0xF0))
	a.I(insn.MRS(insn.X21, insn.SP_EL0))
	a.I(insn.STR(insn.X21, insn.SP, PtRegsSP))
	a.I(insn.MRS(insn.X22, insn.ELR_EL1))
	a.I(insn.MRS(insn.X23, insn.SPSR_EL1))
	a.I(insn.STP(insn.X22, insn.X23, insn.SP, PtRegsELR))
	// Switch to the kernel keys before running any kernel C code (§4.1).
	// The setter lives in XOM; its immediates are unreadable.
	if protected {
		a.BL("key_setter")
	}
	// Dispatch on the exception class.
	a.I(insn.MRS(insn.X20, insn.ESR_EL1))
	a.I(insn.LSRi(insn.X21, insn.X20, 26))
	a.I(insn.MOVZ(insn.X9, 0x15, 0)) // EC = SVC64
	a.I(insn.CMP(insn.X21, insn.X9))
	a.Bcond(insn.EQ, "el0_svc")
	a.B("user_fault")

	a.Label("el0_svc")
	a.I(insn.LDR(insn.X8, insn.SP, 0x40)) // pt_regs->x8: syscall number
	a.I(insn.MOVZ(insn.X9, SysMax, 0))
	a.I(insn.CMP(insn.X8, insn.X9))
	a.Bcond(insn.CC, "el0_svc_ok")
	a.I(insn.MOVN(insn.X0, 37, 0)) // -ENOSYS
	a.I(insn.STR(insn.X0, insn.SP, 0))
	a.B("ret_to_user")

	a.Label("el0_svc_ok")
	a.MOVAddr(insn.X10, "sys_call_table")
	a.I(insn.LSLi(insn.X9, insn.X8, 3))
	a.I(insn.ADDr(insn.X10, insn.X10, insn.X9))
	a.I(insn.LDR(insn.X11, insn.X10, 0))
	a.I(insn.MOVSP(insn.X0, insn.SP)) // pt_regs as the argument
	a.I(insn.BLR(insn.X11))
	a.I(insn.STR(insn.X0, insn.SP, 0)) // return value into pt_regs->x0

	a.Label("ret_to_user")
	// Halt request from the service layer?
	emitPerCPUAddr(a, cfg, insn.X9)
	a.I(insn.LDR(insn.X10, insn.X9, PerCPUHalt))
	a.CBZ(insn.X10, "rtu_keys")
	a.I(insn.HLT(HaltUser))
	a.Label("rtu_keys")
	// Restore the user keys of the current task from thread_struct
	// (6 cycles per key: LDP + 2×MSR — §6.1.1).
	if protected {
		a.I(insn.MRS(insn.X20, insn.TPIDR_EL1))
		for _, id := range activeKeys(cfg) {
			if mode == boot.ModeV80 && id.IsData() {
				continue
			}
			slot := taskKeySlot(id)
			a.I(insn.LDP(insn.X6, insn.X7, insn.X20, int16(slot)))
			lo, hi := boot.KeyRegs(id, mode)
			a.I(insn.MSR(lo, insn.X6))
			a.I(insn.MSR(hi, insn.X7))
		}
	}
	// kernel_exit: pop pt_regs.
	a.I(insn.LDP(insn.X22, insn.X23, insn.SP, PtRegsELR))
	a.I(insn.MSR(insn.ELR_EL1, insn.X22))
	a.I(insn.MSR(insn.SPSR_EL1, insn.X23))
	a.I(insn.LDR(insn.X21, insn.SP, PtRegsSP))
	a.I(insn.MSR(insn.SP_EL0, insn.X21))
	for r := 0; r < 30; r += 2 {
		a.I(insn.LDP(insn.Reg(r), insn.Reg(r+1), insn.SP, int16(8*r)))
	}
	a.I(insn.LDR(insn.X30, insn.SP, 0xF0))
	a.I(insn.ADDi(insn.SP, insn.SP, PtRegsSize))
	a.I(insn.ERET())

	// user_fault: a fault taken from EL0 (bad pointer, etc.): record and
	// let the service kill the task; then run whatever is next.
	a.Label("user_fault")
	emitPerCPUAddr(a, cfg, insn.X9)
	a.I(insn.MRS(insn.X10, insn.ESR_EL1))
	a.I(insn.STR(insn.X10, insn.X9, PerCPUFault))
	a.I(insn.MRS(insn.X10, insn.FAR_EL1))
	a.I(insn.STR(insn.X10, insn.X9, PerCPUFAR))
	a.I(insn.MOVZ(insn.X13, 0, 0)) // arg0 = 0: user fault
	a.I(insn.STR(insn.X13, insn.X9, PerCPUArg0))
	emitServiceCall(a, cfg, SvcFault)
	a.B("after_fault")
}

// emitEL1Sync emits the kernel-fault handler: this is where PAC
// authentication failures land (a poisoned pointer raises an address-size
// fault when used). The service layer implements the §5.4 brute-force
// policy: log, kill the offending task, and halt the system once the
// failure threshold is crossed.
func emitEL1Sync(a *asm.Assembler, cfg *codegen.Config) {
	a.Label("el1_sync")
	emitPerCPUAddr(a, cfg, insn.X9)
	a.I(insn.MRS(insn.X10, insn.ESR_EL1))
	a.I(insn.STR(insn.X10, insn.X9, PerCPUFault))
	a.I(insn.MRS(insn.X10, insn.FAR_EL1))
	a.I(insn.STR(insn.X10, insn.X9, PerCPUFAR))
	a.I(insn.MOVZ(insn.X13, 1, 0)) // arg0 = 1: kernel fault
	a.I(insn.STR(insn.X13, insn.X9, PerCPUArg0))
	emitServiceCall(a, cfg, SvcFault)

	a.Label("after_fault")
	// The service decided: halt (1 = orderly, 2 = panic), or switch to
	// the victim's successor.
	emitPerCPUAddr(a, cfg, insn.X9)
	a.I(insn.LDR(insn.X10, insn.X9, PerCPUHalt))
	a.CBZ(insn.X10, "fault_pick")
	a.I(insn.MOVZ(insn.X11, 2, 0))
	a.I(insn.CMP(insn.X10, insn.X11))
	a.Bcond(insn.EQ, "fault_panic")
	a.I(insn.HLT(HaltUser))
	a.Label("fault_panic")
	a.I(insn.HLT(HaltPanic))
	a.Label("fault_pick")
	a.I(insn.LDR(insn.X1, insn.X9, PerCPUNext))
	a.CBNZ(insn.X1, "switch_in")
	a.I(insn.HLT(HaltNoNext))
}

// emitSwitchTo emits cpu_switch_to (§5.2): the context switch saves the
// callee-saved registers and — under Camouflage — signs the switched-out
// task's SP and authenticates the switched-in task's SP with the pointer
// integrity scheme, protecting stacks of scheduled-out tasks.
func emitSwitchTo(a *asm.Assembler, cfg *codegen.Config) {
	a.Label("cpu_switch_to")
	// Save prev (x0) context.
	a.I(insn.STP(insn.X19, insn.X20, insn.X0, TaskCtx+0))
	a.I(insn.STP(insn.X21, insn.X22, insn.X0, TaskCtx+16))
	a.I(insn.STP(insn.X23, insn.X24, insn.X0, TaskCtx+32))
	a.I(insn.STP(insn.X25, insn.X26, insn.X0, TaskCtx+48))
	a.I(insn.STP(insn.X27, insn.X28, insn.X0, TaskCtx+64))
	a.I(insn.STR(insn.X29, insn.X0, TaskCtxFP))
	a.I(insn.STR(insn.X30, insn.X0, TaskCtxPC))
	a.I(insn.MOVSP(insn.X9, insn.SP))
	if cfg.DFI {
		if cfg.ZeroModifier {
			a.I(insn.PACDZB(insn.X9))
		} else {
			a.I(insn.MOVZW(insn.X10, tcTaskSP, 0))
			a.I(insn.BFI(insn.X10, insn.X0, 16, 48))
			a.I(insn.PACDB(insn.X9, insn.X10))
		}
	}
	a.I(insn.STR(insn.X9, insn.X0, TaskCtxSP))

	// Restore next (x1) context. The "switch_in" entry is shared with the
	// fault path, which abandons the dead task's context.
	a.Label("switch_in")
	a.I(insn.LDP(insn.X19, insn.X20, insn.X1, TaskCtx+0))
	a.I(insn.LDP(insn.X21, insn.X22, insn.X1, TaskCtx+16))
	a.I(insn.LDP(insn.X23, insn.X24, insn.X1, TaskCtx+32))
	a.I(insn.LDP(insn.X25, insn.X26, insn.X1, TaskCtx+48))
	a.I(insn.LDP(insn.X27, insn.X28, insn.X1, TaskCtx+64))
	a.I(insn.LDR(insn.X29, insn.X1, TaskCtxFP))
	a.I(insn.LDR(insn.X30, insn.X1, TaskCtxPC))
	a.I(insn.LDR(insn.X9, insn.X1, TaskCtxSP))
	if cfg.DFI {
		if cfg.ZeroModifier {
			a.I(insn.AUTDZB(insn.X9))
		} else {
			a.I(insn.MOVZW(insn.X10, tcTaskSP, 0))
			a.I(insn.BFI(insn.X10, insn.X1, 16, 48))
			a.I(insn.AUTDB(insn.X9, insn.X10))
		}
	}
	a.I(insn.MOVSP(insn.SP, insn.X9))
	a.I(insn.MSR(insn.TPIDR_EL1, insn.X1))
	a.I(insn.RET())

	// ret_from_fork: the first thing a new task runs; its crafted
	// cpu_context points here with SP at the child's pt_regs.
	a.Label("ret_from_fork")
	a.B("ret_to_user")
}
