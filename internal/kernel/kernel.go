package kernel

import (
	"fmt"

	"camouflage/internal/asm"
	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/hyp"
	"camouflage/internal/insn"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/pac"
)

// Options configures a kernel build.
type Options struct {
	// Config selects the instrumentation level (codegen.ConfigNone /
	// ConfigBackward / ConfigFull, or a custom scheme for Figure 2).
	Config *codegen.Config
	// Seed drives the bootloader PRNG (keys, user keys).
	Seed uint64
	// Compat selects the §5.5 backwards-compatible build.
	Compat boot.Compat
	// V80 runs on an ARMv8.0 core (no PAuth; pair with Compat).
	V80 bool
	// FailureThreshold is the §5.4 brute-force mitigation: the kernel
	// halts after this many PAC authentication failures. Zero selects the
	// default of 8.
	FailureThreshold int
}

// DefaultFailureThreshold is the §5.4 brute-force halt threshold used
// when Options.FailureThreshold is zero.
const DefaultFailureThreshold = 8

// Normalized returns the options with New's defaults applied: a nil
// Config selects the full build and a zero FailureThreshold the §5.4
// default. New builds from it and the snapshot pool keys machines by
// it, so two option sets that boot the same machine share a key.
func (o Options) Normalized() Options {
	if o.Config == nil {
		o.Config = codegen.ConfigFull()
	}
	if o.FailureThreshold == 0 {
		o.FailureThreshold = DefaultFailureThreshold
	}
	return o
}

// OopsRecord is one logged kernel fault (§6.2.3: "any failures are also
// logged, ensuring that such vulnerable code paths can be fixed").
type OopsRecord struct {
	ESR, FAR, ELR uint64
	Kernel        bool
	PACFailure    bool
	PID           int
}

// Task is the host-side mirror of one kernel task.
type Task struct {
	PID, PPID int
	// Addr is the VA of the task struct in kernel memory.
	Addr uint64
	// StackTop is the top of the task's 16 KiB kernel stack.
	StackTop uint64
	// State mirrors the guest task state.
	State int
	// Keys are the task's user-space PAuth keys (regenerated on exec).
	Keys pac.KeySet
	// SigHandler and SavedELR implement minimal signal delivery.
	SigHandler uint64
	SavedELR   uint64
	// ProgID identifies the loaded user program.
	ProgID int
	// CPU is the core the task is affined to (tasks never migrate:
	// the scheduler is per-core round-robin, like a no-balancing
	// SCHED_FIFO; forks inherit the parent's core).
	CPU int
}

type pipeState struct {
	// buf[r:] is the unread data. The read cursor (instead of reslicing
	// buf forward) lets a drained pipe reuse its backing array: the
	// write fast path appends in place, allocation-free at steady state.
	buf []byte
	r   int
}

// fileState mirrors one open struct file.
type fileState struct {
	addr   uint64
	opsVA  uint64
	pathID int
	inode  uint64
}

// Kernel owns the simulated machine and the host service layer.
type Kernel struct {
	// CPU is the boot core (CPUs[0]): the target of every single-core
	// API (Spawn, CallGuest, the attack harness, Stats).
	CPU *cpu.CPU
	// CPUs are all cores of the machine, sharing one bus, stage-1
	// kernel table, stage-2 overlay and invalidation cluster; each owns
	// its architectural state, TLB, block cache and user-table pointer.
	CPUs []*cpu.CPU
	Hyp  *hyp.Hypervisor
	UART *mem.UART
	Net  *mem.NetDev
	Blk  *mem.BlockDev
	Cfg  *codegen.Config
	Img  *asm.Image

	opts Options
	keys pac.KeySet // bootloader's kernel keys (never in guest-readable memory)
	rng  *boot.PRNG

	// active is the core whose instructions are retiring right now; the
	// deterministic scheduler (and CallGuest) sets it before running a
	// core, so service handlers know which per-CPU frame and current
	// task a doorbell store belongs to. Execution is strictly one core
	// at a time (round-robin quanta), which is what keeps SMP runs
	// byte-reproducible.
	active int
	// currents mirrors each core's current task (nil: core idle).
	currents []*Task
	// parked marks cores with nothing to run: post-boot secondaries,
	// and cores whose last task exited. Parked cores are skipped by the
	// scheduler until SpawnOn hands them work.
	parked []bool

	heapNext uint64
	nextPID  int
	tasks    map[int]*Task
	tables   map[int]*mmu.Table
	programs map[int]*Program
	pipes    map[uint64]*pipeState
	nextPipe uint64
	files    map[uint64]*fileState
	credObj  uint64
	extraOps map[int]uint64 // dynamically registered drivers (modules)
	modNext  uint64

	// PACFailures counts kernel PAC authentication failures (§5.4).
	PACFailures int
	// Threshold is the halt threshold.
	Threshold int
	// Oops is the fault log.
	Oops []OopsRecord
	// Halted is set once the panic path or last-task exit fires.
	Halted bool

	// ServiceCalls counts service invocations by code (diagnostics).
	// Indexed by service code; dense so the dispatch loop counts with an
	// array store instead of a map insert.
	ServiceCalls [SvcMax]uint64

	// BootCycles is the cycle count consumed by start_kernel.
	BootCycles uint64
}

// serviceCost models the cycle cost of the host-side portion of each
// service (the un-instrumented kernel bookkeeping the service stands in
// for; identical across protection levels, so it never inflates relative
// overheads — see DESIGN.md).
var serviceCost = [SvcMax]uint64{
	SvcOpen:      600,
	SvcClose:     200,
	SvcStat:      450,
	SvcPickNext:  150,
	SvcFork:      2400,
	SvcExec:      7000,
	SvcExit:      300,
	SvcSigact:    80,
	SvcKill:      160,
	SvcPipe:      500,
	SvcPipeIO:    90,
	SvcPoll:      40,
	SvcFault:     200,
	SvcWake:      60,
	SvcLog:       10,
	SvcSigreturn: 40,
}

// svcDev is the kernel-service doorbell device.
type svcDev struct{ k *Kernel }

// Name implements mem.Device.
func (d *svcDev) Name() string { return "kernsvc" }

// Load implements mem.Device.
func (d *svcDev) Load(offset uint64, size int) (uint64, error) { return 0, nil }

// Store implements mem.Device. The window is an array of per-CPU
// doorbell slots, 8 bytes each: the slot offset identifies the ringing
// core (SMP images derive it from MPIDR_EL1; 1-vCPU images always ring
// slot 0, preserving the pre-SMP wire format).
func (d *svcDev) Store(offset uint64, size int, v uint64) error {
	if offset&7 == 0 && offset < 8*MaxCPUs {
		return d.k.serviceFrom(int(offset>>3), v)
	}
	return nil
}

// buildLinked runs the deterministic build pipeline for normalized
// options: seed the bootloader PRNG, draw the kernel keys, emit and link
// the image. It is shared by New and the snapshot-store load path, which
// re-derives the immutable image from the manifest's options instead of
// shipping code bytes — two builds from equal options are bit-identical,
// so a loaded snapshot's image is exactly the captured machine's.
func buildLinked(opts Options) (*asm.Image, pac.KeySet, *boot.PRNG, error) {
	rng := boot.NewPRNG(opts.Seed ^ 0xB007_B007)
	keys := rng.GenerateKeys()
	a := buildImage(opts.Config, keys, opts.Compat)
	img, err := a.Link(map[string]uint64{
		".xom":     XOMBase,
		".vectors": VecBase,
		".text":    TextBase,
		".rodata":  RodataBase,
		".data":    DataBase,
	})
	if err != nil {
		return nil, pac.KeySet{}, nil, fmt.Errorf("kernel: link: %w", err)
	}
	return img, keys, rng, nil
}

// New builds and loads the kernel but does not boot it. The CPU count
// comes from Options.Config.NumCPUs (0/1: uniprocessor, bit-identical
// to pre-SMP builds).
func New(opts Options) (*Kernel, error) {
	opts = opts.Normalized()
	ncpus := opts.Config.CPUs()
	if ncpus > MaxCPUs {
		return nil, fmt.Errorf("kernel: %d vCPUs exceeds MaxCPUs=%d", ncpus, MaxCPUs)
	}
	img, keys, rng, err := buildLinked(opts)
	if err != nil {
		return nil, err
	}

	c := cpu.New(cpu.Features{PAuth: !opts.V80})
	k := &Kernel{
		CPU:       c,
		UART:      &mem.UART{},
		Net:       &mem.NetDev{},
		Blk:       mem.NewBlockDev(),
		Cfg:       opts.Config,
		Img:       img,
		opts:      opts,
		keys:      keys,
		rng:       rng,
		heapNext:  HeapBase,
		nextPID:   1,
		tasks:     make(map[int]*Task),
		tables:    make(map[int]*mmu.Table),
		programs:  make(map[int]*Program),
		pipes:     make(map[uint64]*pipeState),
		nextPipe:  1,
		files:     make(map[uint64]*fileState),
		extraOps:  make(map[int]uint64),
		modNext:   ModuleBase,
		Threshold: opts.FailureThreshold,
	}

	// Devices.
	if err := k.mapDevices(); err != nil {
		return nil, err
	}

	// Load the image.
	//camo:nondet sections occupy disjoint physical ranges; write order cannot alias
	for _, s := range img.Sections {
		c.Bus.RAM.WriteBytes(KVAToPA(s.Base), s.Bytes)
	}

	// Stage-1 kernel mappings.
	mapRange := func(va, size uint64, perm mmu.Perm) {
		for off := uint64(0); off < size; off += mmu.PageSize {
			c.MMU.TT1.Map(va+off, KVAToPA(va+off), perm)
		}
	}
	secSize := func(name string) uint64 {
		s := img.Sections[name]
		if s == nil {
			return mmu.PageSize
		}
		return (uint64(len(s.Bytes)) + mmu.PageSize - 1) &^ (mmu.PageSize - 1)
	}
	mapRange(VecBase, secSize(".vectors"), mmu.KernelText)
	mapRange(XOMBase, secSize(".xom"), mmu.KernelText)
	mapRange(TextBase, secSize(".text"), mmu.KernelText)
	mapRange(RodataBase, secSize(".rodata"), mmu.KernelRO)
	mapRange(DataBase, secSize(".data"), mmu.KernelData)
	mapRange(HeapBase, HeapSize, mmu.KernelData)
	mapRange(StackBase, 64*StackSize, mmu.KernelData)
	if ncpus > 1 {
		// Secondary boot stacks live above the 64-slot task arena.
		mapRange(StackBase+64*StackSize, uint64(MaxCPUs)*StackSize, mmu.KernelData)
	}
	for _, dev := range []uint64{UARTBase, NetBase, BlkBase, SvcBase} {
		mapRange(dev, mmu.PageSize, mmu.KernelData)
	}

	// Hypervisor: XOM for the key setter, write-protect .rodata even
	// against stage-1 corruption (§3.1), stage-2 on.
	k.Hyp = hyp.Attach(c)
	k.Hyp.MapXOM(KVAToPA(XOMBase), secSize(".xom"))
	k.Hyp.ProtectReadOnly(KVAToPA(RodataBase), secSize(".rodata"))

	// Credentials object shared by all files (f_cred target).
	k.credObj = k.heapAlloc(64)

	// CPU initial state.
	c.MMU.Enabled = true
	c.VBAR = VecBase
	if !opts.V80 {
		c.SCTLR = insn.SCTLRPAuthAll
	}
	c.EL = 1
	c.TPIDR0 = PerCPUVA(0)

	// Secondary cores: same initial control state, own per-CPU frame
	// base; they share the bus, TT1, stage-2 and invalidation cluster
	// through NewPeer, and come under the hypervisor's MSR filter like
	// the boot core.
	k.CPUs = []*cpu.CPU{c}
	k.currents = make([]*Task, ncpus)
	k.parked = make([]bool, ncpus)
	for i := 1; i < ncpus; i++ {
		p := c.NewPeer(i)
		p.VBAR = VecBase
		if !opts.V80 {
			p.SCTLR = insn.SCTLRPAuthAll
		}
		p.TPIDR0 = PerCPUVA(i)
		k.Hyp.AttachPeer(p)
		k.CPUs = append(k.CPUs, p)
		k.parked[i] = true // parked until SpawnOn dispatches work
	}
	return k, nil
}

// NumCPUs returns the machine's core count.
func (k *Kernel) NumCPUs() int { return len(k.CPUs) }

// cpu returns the core whose quantum is executing (service dispatch).
func (k *Kernel) cpu() *cpu.CPU { return k.CPUs[k.active] }

// cur returns the current task of the executing core.
func (k *Kernel) cur() *Task { return k.currents[k.active] }

// mapDevices installs the device windows (and the service doorbell) on
// the kernel's bus. Shared by New and the snapshot fork path.
func (k *Kernel) mapDevices() error {
	c := k.CPU
	if err := c.Bus.Map(KVAToPA(UARTBase), 0x1000, k.UART); err != nil {
		return err
	}
	if err := c.Bus.Map(KVAToPA(NetBase), 0x1000, k.Net); err != nil {
		return err
	}
	if err := c.Bus.Map(KVAToPA(BlkBase), 0x1000, k.Blk); err != nil {
		return err
	}
	return c.Bus.Map(KVAToPA(SvcBase), 0x1000, &svcDev{k})
}

// KernelKeysForTest exposes the bootloader's kernel keys to the attack
// harness and tests (the attacker does NOT get these; they model the
// bootloader's own knowledge).
func (k *Kernel) KernelKeysForTest() pac.KeySet { return k.keys }

// AllocScratch carves writable kernel heap memory; the attack harness
// uses it for forged objects (the heap arena is always mapped).
func (k *Kernel) AllocScratch(n uint64) uint64 { return k.heapAlloc(n) }

// heapAlloc carves n bytes (64-byte aligned) from the kernel heap.
func (k *Kernel) heapAlloc(n uint64) uint64 {
	addr := (k.heapNext + 63) &^ 63
	k.heapNext = addr + n
	if k.heapNext > HeapBase+HeapSize {
		panic("kernel: heap exhausted")
	}
	return addr
}

// Boot runs start_kernel on the boot core — key install via the XOM
// setter and early-boot signing of static pointers — then brings every
// secondary core through secondary_start (each installs the kernel keys
// into its own per-core key registers, the state the paper's design
// switches on every kernel entry), and finally the hypervisor locks the
// MMU configuration machine-wide.
func (k *Kernel) Boot() error {
	start := k.CPU.Cycles
	k.CPU.SetSP(1, StackBase+StackSize) // boot stack (becomes task 0's)
	k.CPU.PC = k.Img.Symbols["start_kernel"]
	stop := k.CPU.Run(1_000_000)
	if stop.Kind != cpu.StopHLT || stop.Code != HaltBootOK {
		return fmt.Errorf("kernel: boot failed: %+v", stop)
	}
	for i := 1; i < len(k.CPUs); i++ {
		c := k.CPUs[i]
		c.SetSP(1, secondaryBootStackTop(i))
		c.PC = k.Img.Symbols["secondary_start"]
		k.active = i
		sstop := c.Run(1_000_000)
		k.active = 0
		if sstop.Kind != cpu.StopHLT || sstop.Code != HaltSecondaryOK {
			return fmt.Errorf("kernel: cpu%d secondary boot failed: %+v", i, sstop)
		}
	}
	k.BootCycles = k.CPU.Cycles - start
	k.Hyp.Lockdown()
	return nil
}

// secondaryBootStackTop returns the top of a secondary core's boot (and
// host-call) stack: the top MaxCPUs slots of the kernel stack arena,
// which task stacks (indexed by PID from slot 1) never reach.
func secondaryBootStackTop(cpu int) uint64 {
	return StackBase + uint64(secondaryStackSlot0+cpu+1)*StackSize
}

// percpuPA is the physical address of a core's per-CPU frame.
func percpuPA(cpu int) uint64 {
	return KVAToPA(DataBase) + PerCPUOffset + uint64(cpu)*PerCPUSize
}

func (k *Kernel) arg(i int) uint64 {
	return k.CPU.Bus.RAM.Read64(percpuPA(k.active) + PerCPUArg0 + uint64(8*i))
}

func (k *Kernel) setArg(i int, v uint64) {
	k.CPU.Bus.RAM.Write64(percpuPA(k.active)+PerCPUArg0+uint64(8*i), v)
}

func (k *Kernel) setRet(i int, v uint64) {
	k.CPU.Bus.RAM.Write64(percpuPA(k.active)+PerCPURet0+uint64(8*i), v)
}

func (k *Kernel) setPrevNext(prev, next uint64) {
	k.CPU.Bus.RAM.Write64(percpuPA(k.active)+PerCPUPrev, prev)
	k.CPU.Bus.RAM.Write64(percpuPA(k.active)+PerCPUNext, next)
}

// setHalt halts the whole machine: every core's halt flag is raised so
// each exits the guest at its next kernel-exit or fault check.
func (k *Kernel) setHalt() {
	k.Halted = true
	for i := range k.CPUs {
		k.CPU.Bus.RAM.Write64(percpuPA(i)+PerCPUHalt, 1)
	}
}

// parkCPU retires one core from scheduling: its halt flag is raised (the
// guest exits through HLT at the next check) without halting the
// machine. SpawnOn revives a parked core.
func (k *Kernel) parkCPU(cpu int) {
	k.CPU.Bus.RAM.Write64(percpuPA(cpu)+PerCPUHalt, 1)
}

// setPanic marks the §5.4 brute-force halt (reported as HaltPanic).
func (k *Kernel) setPanic() {
	k.Halted = true
	for i := range k.CPUs {
		k.CPU.Bus.RAM.Write64(percpuPA(i)+PerCPUHalt, 1)
	}
	k.CPU.Bus.RAM.Write64(percpuPA(k.active)+PerCPUHalt, 2)
}

// readFaultInfo reads the ESR/FAR the fault stub recorded.
func (k *Kernel) readFaultInfo() (esr, far uint64) {
	esr = k.CPU.Bus.RAM.Read64(percpuPA(k.active) + PerCPUFault)
	far = k.CPU.Bus.RAM.Read64(percpuPA(k.active) + PerCPUFAR)
	return
}

// serviceFrom dispatches a doorbell rung by a specific core. The
// scheduler sets k.active before running a quantum, so it already names
// the ringing core and the assignment is a no-op.
func (k *Kernel) serviceFrom(cpu int, code uint64) error {
	if cpu < len(k.CPUs) {
		k.active = cpu
	}
	return k.service(code)
}

// service dispatches one host-service call from the guest.
func (k *Kernel) service(code uint64) error {
	if code < SvcMax {
		k.ServiceCalls[code]++
		k.cpu().Cycles += serviceCost[code]
	}
	switch code {
	case SvcOpen:
		k.svcOpen()
	case SvcClose:
		k.svcClose()
	case SvcStat:
		k.svcStat()
	case SvcPickNext:
		k.svcPickNext()
	case SvcFork:
		k.svcFork()
	case SvcExec:
		k.svcExec()
	case SvcExit:
		k.svcExit()
	case SvcSigact:
		k.cur().SigHandler = k.arg(0)
	case SvcKill:
		k.svcKill()
	case SvcSigreturn:
		k.svcSigreturn()
	case SvcPipe:
		k.svcPipe()
	case SvcPipeIO:
		k.svcPipeIO()
	case SvcPoll:
		k.svcPoll()
	case SvcFault:
		k.svcFault()
	case SvcWake:
		if t := k.tasks[int(k.arg(0))]; t != nil && t.State == TaskBlocked {
			t.State = TaskRunnable
		}
	case SvcLog:
		// diagnostic only
	default:
		return fmt.Errorf("kernel: unknown service %d", code)
	}
	return nil
}

// pathToOps maps a path id to its file_operations symbol.
func (k *Kernel) pathToOps(path int) (uint64, uint64) {
	switch path {
	case PathDevZero:
		return k.Img.Symbols["zero_ops"], 0
	case PathDevNull:
		return k.Img.Symbols["null_ops"], 0
	case PathTmpFile:
		return k.Img.Symbols["file_ops_blk"], 7 // sector 7
	case PathSocket:
		return k.Img.Symbols["sock_ops"], 0
	}
	if ops, ok := k.extraOps[path]; ok {
		return ops, uint64(path)
	}
	return 0, 0
}

// RegisterDriverOps exposes a (module-provided) file_operations table
// under a new path id.
func (k *Kernel) RegisterDriverOps(pathID int, opsVA uint64) {
	k.extraOps[pathID] = opsVA
}

// AllocModuleRange reserves module VA space (64 KiB aligned).
func (k *Kernel) AllocModuleRange(size uint64) uint64 {
	va := k.modNext
	k.modNext += (size + 0xFFFF) &^ 0xFFFF
	return va
}

// MapKernelRange installs stage-1 kernel mappings (module loading).
func (k *Kernel) MapKernelRange(va, size uint64, perm mmu.Perm) {
	for off := uint64(0); off < size; off += mmu.PageSize {
		k.CPU.MMU.TT1.Map(va+off, KVAToPA(va+off), perm)
	}
}

// WriteKernelMemory copies bytes into kernel memory (module loading),
// invalidating stale decoded instructions.
func (k *Kernel) WriteKernelMemory(va uint64, b []byte) {
	k.CPU.Bus.RAM.WriteBytes(KVAToPA(va), b)
	k.CPU.InvalidateDecode()
}

// CallGuest invokes a guest function at the given VA on the boot core,
// with up to four arguments in x0..x3, on the reserved boot stack, and
// waits for its return. Used by the module loader (pointer-table
// signing runs as guest code) and by micro-benchmarks.
func (k *Kernel) CallGuest(fnVA uint64, args ...uint64) error {
	regs := make(map[insn.Reg]uint64, len(args))
	for i, v := range args {
		regs[insn.Reg(i)] = v
	}
	return k.CallGuestRegs(fnVA, regs)
}

// CallGuestRegs is CallGuest with explicit register assignments.
func (k *Kernel) CallGuestRegs(fnVA uint64, regs map[insn.Reg]uint64) error {
	c := k.CPU
	savedActive := k.active
	k.active = 0
	defer func() { k.active = savedActive }()
	savedPC, savedEL := c.PC, c.EL
	savedSP := c.SP(1)
	c.EL = 1
	c.SetSP(1, StackBase+StackSize)
	//camo:nondet each iteration sets a distinct register; no aliasing across keys
	for r, v := range regs {
		c.SetReg(r, v)
	}
	c.SetReg(insn.X16, fnVA)
	c.PC = k.Img.Symbols["host_call_stub"]
	stop := c.Run(10_000_000)
	if stop.Kind != cpu.StopHLT || stop.Code != HaltHostCall {
		return fmt.Errorf("kernel: guest call to %#x failed: %+v", fnVA, stop)
	}
	c.PC, c.EL = savedPC, savedEL
	c.SetSP(1, savedSP)
	return nil
}

// newFileObject allocates and initialises a struct file in guest memory
// (everything except the signed fields, which the guest signs itself).
func (k *Kernel) newFileObject(opsVA, inode uint64, pathID int) uint64 {
	addr := k.heapAlloc(FileSize)
	ram := k.CPU.Bus.RAM
	pa := KVAToPA(addr)
	ram.Write64(pa+FileCount, 1)
	ram.Write64(pa+FileFlags, 0)
	ram.Write64(pa+FilePos, 0)
	ram.Write64(pa+FileInode, inode)
	k.files[addr] = &fileState{addr: addr, opsVA: opsVA, pathID: pathID, inode: inode}
	return addr
}

// installFD writes a file pointer into the current task's fd table,
// returning the fd (or -1).
func (k *Kernel) installFD(fileVA uint64) int {
	ram := k.CPU.Bus.RAM
	base := KVAToPA(k.cur().Addr) + TaskFiles
	for fd := 0; fd < TaskNFiles; fd++ {
		if ram.Read64(base+uint64(8*fd)) == 0 {
			ram.Write64(base+uint64(8*fd), fileVA)
			return fd
		}
	}
	return -1
}

func (k *Kernel) svcOpen() {
	path := int(k.arg(0))
	opsVA, inode := k.pathToOps(path)
	if opsVA == 0 {
		k.setRet(0, errno(-2)) // -ENOENT
		return
	}
	fileVA := k.newFileObject(opsVA, inode, path)
	fd := k.installFD(fileVA)
	if fd < 0 {
		k.setRet(0, errno(-24)) // -EMFILE
		return
	}
	k.setRet(0, uint64(fd))
	k.setRet(1, fileVA)
	k.setArg(4, opsVA)
	k.setArg(5, k.credObj)
}

func (k *Kernel) svcClose() {
	fd := int(k.arg(0))
	ram := k.CPU.Bus.RAM
	if fd < 0 || fd >= TaskNFiles {
		k.setRet(0, errno(-9))
		return
	}
	slot := KVAToPA(k.cur().Addr) + TaskFiles + uint64(8*fd)
	if ram.Read64(slot) == 0 {
		k.setRet(0, errno(-9))
		return
	}
	ram.Write64(slot, 0)
	k.setRet(0, 0)
}

func (k *Kernel) svcStat() {
	path := int(k.arg(0))
	if ops, _ := k.pathToOps(path); ops == 0 {
		k.setRet(0, errno(-2))
		return
	}
	k.setRet(0, 0)
}

// pickNext chooses the next runnable task after current (round robin)
// among the tasks affined to the executing core.
func (k *Kernel) pickNext() *Task {
	if len(k.tasks) == 0 {
		return nil
	}
	start := 0
	if k.cur() != nil {
		start = k.cur().PID
	}
	for off := 1; off <= k.nextPID; off++ {
		pid := (start+off-1)%k.nextPID + 1
		if t := k.tasks[pid]; t != nil && t.CPU == k.active &&
			t.State == TaskRunnable && t != k.cur() {
			return t
		}
	}
	if k.cur() != nil && k.cur().State == TaskRunnable {
		return k.cur()
	}
	return nil
}

// anyRunnable reports whether any task in the system is runnable —
// i.e. whether, machine-wide, somebody could still make progress (or
// wake a blocked sibling). Running currents count: they stay Runnable
// while on a core.
func (k *Kernel) anyRunnable() bool {
	for _, t := range k.tasks {
		if t.State == TaskRunnable {
			return true
		}
	}
	return false
}

// switchAccounting points the executing core's MMU and host mirror at
// the next task. The guest's cpu_switch_to moves the architectural
// state.
func (k *Kernel) switchAccounting(next *Task) {
	if next == nil || next == k.cur() {
		return
	}
	k.cpu().MMU.TT0 = k.tables[next.PID]
	k.currents[k.active] = next
}

func (k *Kernel) svcPickNext() {
	block := k.arg(0) != 0
	prev := k.cur()
	if block {
		prev.State = TaskBlocked
	}
	next := k.pickNext()
	if next == nil {
		if block {
			if len(k.CPUs) > 1 && k.anyRunnable() {
				// Nothing runnable on this core, but another core can
				// still make progress (and may wake this task): spin —
				// the guest switches to itself and re-polls. The
				// deterministic quantum scheduler interleaves the cores,
				// so the wakeup arrives exactly as on a real SMP idle
				// poll loop.
				k.setPrevNext(prev.Addr, prev.Addr)
				return
			}
			// Deadlock: nothing runnable anywhere. Halt rather than spin.
			k.setHalt()
			k.setPrevNext(prev.Addr, prev.Addr)
			return
		}
		next = prev
	}
	k.setPrevNext(prev.Addr, next.Addr)
	k.switchAccounting(next)
}

func (k *Kernel) svcFork() {
	if k.taskSlotsExhausted() {
		k.setRet(0, errno(-11)) // -EAGAIN, as fork(2) reports it
		return
	}
	parent := k.cur()
	parentPtRegs := k.arg(0)
	child := k.newTask(parent.PID, parent.ProgID)
	child.Keys = parent.Keys // fork shares the address-space keys (§2.2)
	k.writeTaskKeys(child)

	// Child trap frame sits at the top of its kernel stack; the guest
	// copies the contents.
	childPtRegs := child.StackTop - PtRegsSize
	k.CPU.Bus.RAM.Write64(KVAToPA(child.Addr)+TaskPtRegs, childPtRegs)

	// Craft the child's cpu_context: resume at ret_from_fork on its own
	// trap frame; the saved SP is signed exactly as cpu_switch_to would
	// have signed it (§5.2).
	k.initContext(child, k.Img.Symbols["ret_from_fork"], childPtRegs)

	// Clone the fd table.
	ram := k.CPU.Bus.RAM
	for fd := 0; fd < TaskNFiles; fd++ {
		v := ram.Read64(KVAToPA(parent.Addr) + TaskFiles + uint64(8*fd))
		ram.Write64(KVAToPA(child.Addr)+TaskFiles+uint64(8*fd), v)
	}

	// Address space: share text read-only, copy stack and data windows.
	k.cloneUserSpace(parent, child)

	child.State = TaskRunnable
	k.setRet(0, uint64(child.PID))
	k.setRet(1, childPtRegs)
	_ = parentPtRegs // the guest performs the visible pt_regs copy
}

// initContext writes a fresh cpu_context so that switching to the task
// lands at pc with the given kernel SP (signed under DFI builds).
func (k *Kernel) initContext(t *Task, pc, sp uint64) {
	ram := k.CPU.Bus.RAM
	base := KVAToPA(t.Addr)
	for off := uint64(TaskCtx); off < TaskCtxFP; off += 8 {
		ram.Write64(base+off, 0)
	}
	ram.Write64(base+TaskCtxFP, 0)
	ram.Write64(base+TaskCtxPC, pc)
	spVal := sp
	if k.Cfg.DFI {
		mod := pac.ObjectModifier(t.Addr, tcTaskSP)
		if k.Cfg.ZeroModifier {
			mod = 0
		}
		spVal = k.CPU.Signer.Sign(sp, mod, pac.KeyDB)
	}
	ram.Write64(base+TaskCtxSP, spVal)
}

func (k *Kernel) svcExec() {
	progID := int(k.arg(0))
	t := k.cur()
	prog := k.programs[progID]
	if prog == nil {
		k.setRet(0, errno(-2))
		return
	}
	// exec() regenerates the address-space keys (§2.2).
	t.Keys = k.rng.GenerateKeys()
	k.writeTaskKeys(t)
	t.ProgID = progID
	k.loadUserSpace(t, prog)
	// Rewrite the live trap frame to enter the new program.
	ptregs := t.StackTop - PtRegsSize
	ram := k.CPU.Bus.RAM
	ram.Write64(KVAToPA(ptregs)+PtRegsELR, prog.entryVA)
	ram.Write64(KVAToPA(ptregs)+PtRegsSP, UserStackTop)
	ram.Write64(KVAToPA(ptregs)+PtRegsSPSR, 0) // EL0
	k.setRet(0, 0)
}

func (k *Kernel) svcExit() {
	k.cur().State = TaskZombie
	delete(k.tasks, k.cur().PID)
	next := k.pickNext()
	if next == nil {
		if len(k.CPUs) > 1 && k.anyRunnable() {
			// This core's task set drained, but siblings still have
			// work: park only this core (machine keeps running).
			k.parkCPU(k.active)
		} else {
			k.setHalt()
		}
		k.setPrevNext(k.cur().Addr, 0)
		return
	}
	k.setPrevNext(k.cur().Addr, next.Addr)
	k.switchAccounting(next)
}

func (k *Kernel) svcKill() {
	pid := int(k.arg(0))
	target := k.tasks[pid]
	if target == nil {
		k.setRet(0, errno(-3)) // -ESRCH
		return
	}
	if target == k.cur() && target.SigHandler != 0 {
		// Deliver immediately: redirect the trap-frame ELR through the
		// handler; sigreturn restores it.
		ptregs := target.StackTop - PtRegsSize
		ram := k.CPU.Bus.RAM
		target.SavedELR = ram.Read64(KVAToPA(ptregs) + PtRegsELR)
		ram.Write64(KVAToPA(ptregs)+PtRegsELR, target.SigHandler)
	}
	k.setRet(0, 0)
}

func (k *Kernel) svcSigreturn() {
	t := k.cur()
	if t.SavedELR != 0 {
		ptregs := t.StackTop - PtRegsSize
		k.CPU.Bus.RAM.Write64(KVAToPA(ptregs)+PtRegsELR, t.SavedELR)
		t.SavedELR = 0
	}
}

func (k *Kernel) svcPipe() {
	id := k.nextPipe
	k.nextPipe++
	k.pipes[id] = &pipeState{}
	rops := k.Img.Symbols["pipe_ops"]
	rfile := k.newFileObject(rops, id, 0)
	wfile := k.newFileObject(rops, id, 0)
	rfd := k.installFD(rfile)
	wfd := k.installFD(wfile)
	k.setRet(0, uint64(rfd))
	k.setRet(1, uint64(wfd))
	k.setArg(0, k.credObj)
	k.setArg(2, rfile)
	k.setArg(3, rops)
	k.setArg(4, wfile)
	k.setArg(5, rops)
}

// CredObjVA exposes the shared credentials object (examples/attacks).
func (k *Kernel) CredObjVA() uint64 { return k.credObj }

// userPA resolves a user VA of the current task for host-side copies.
func (k *Kernel) userPA(va uint64) uint64 {
	return UVAToPA(k.cur().PID, va)
}

func (k *Kernel) svcPipeIO() {
	id := k.arg(0)
	buf := k.arg(1)
	n := k.arg(2)
	write := k.arg(3) != 0
	p := k.pipes[id]
	if p == nil {
		k.setRet(0, errno(-9))
		return
	}
	ram := k.CPU.Bus.RAM
	k.cpu().Cycles += n / 8 // copy cost
	if write {
		// Guest pages are appended straight into the pipe buffer — no
		// intermediate copy, and at steady state (reader keeps up) no
		// allocation either: a drained buffer is rewound and reused.
		p.buf = ram.AppendBytes(p.buf, k.userPA(buf), int(n))
		// Wake any blocked reader.
		for _, t := range k.tasks {
			if t.State == TaskBlocked {
				t.State = TaskRunnable
			}
		}
		k.setRet(0, n)
		return
	}
	avail := uint64(len(p.buf) - p.r)
	if avail == 0 {
		k.setRet(0, errno(-11)) // -EAGAIN: guest blocks
		return
	}
	if n > avail {
		n = avail
	}
	ram.WriteBytes(k.userPA(buf), p.buf[p.r:p.r+int(n)])
	p.r += int(n)
	if p.r == len(p.buf) {
		p.buf, p.r = p.buf[:0], 0
	}
	k.setRet(0, n)
}

func (k *Kernel) svcPoll() {
	id := k.arg(0)
	if p := k.pipes[id]; p != nil && len(p.buf) > p.r {
		k.setRet(0, 1)
		return
	}
	k.setRet(0, 0)
}

// svcFault implements the fault policy: log every fault; count PAC
// authentication failures; halt the system at the §5.4 threshold;
// otherwise SIGKILL the offending task (the default Linux behaviour the
// paper describes) and schedule its successor.
func (k *Kernel) svcFault() {
	kernelFault := k.arg(0) == 1
	esr, far := k.readFaultInfo()
	isPAC := kernelFault && k.cpu().Signer.IsPoisoned(far)
	rec := OopsRecord{
		ESR: esr, FAR: far, ELR: k.cpu().ELR,
		Kernel: kernelFault, PACFailure: isPAC,
	}
	if k.cur() != nil {
		rec.PID = k.cur().PID
	}
	k.Oops = append(k.Oops, rec)

	if isPAC {
		k.PACFailures++
		if k.PACFailures >= k.Threshold {
			// Strong indication of kernel-exploitation attempts: halt.
			k.setPanic()
			k.setPrevNext(0, 0)
			return
		}
	}
	// SIGKILL the current task.
	victim := k.cur()
	if victim != nil {
		victim.State = TaskZombie
		delete(k.tasks, victim.PID)
	}
	next := k.pickNext()
	if next == nil {
		if len(k.CPUs) > 1 && k.anyRunnable() {
			k.parkCPU(k.active) // siblings keep running
		}
		k.setPrevNext(0, 0) // guest halts with HaltNoNext
		return
	}
	prevAddr := uint64(0)
	if victim != nil {
		prevAddr = victim.Addr
	}
	k.setPrevNext(prevAddr, next.Addr)
	k.switchAccounting(next)
}

// writeTaskKeys mirrors a task's user keys into its thread_struct, where
// the kernel-exit path restores them from (§2.2).
func (k *Kernel) writeTaskKeys(t *Task) {
	ram := k.CPU.Bus.RAM
	base := KVAToPA(t.Addr) + TaskKeys
	for i, key := range t.Keys.Keys {
		ram.Write64(base+uint64(16*i), key.Lo)
		ram.Write64(base+uint64(16*i)+8, key.Hi)
	}
}

// taskSlotsExhausted reports whether the next PID's stack slot would
// land in the secondary boot-stack region of an SMP machine. Both task
// creation paths (svcFork, SpawnOn) check it and fail gracefully — the
// guest gets -EAGAIN, the host an error — because the condition is
// guest-reachable (fork loops) and must never take down the host. On
// uniprocessor builds such PIDs simply fault on their unmapped stack,
// the pre-SMP behaviour, so nothing is gated there.
func (k *Kernel) taskSlotsExhausted() bool {
	return len(k.CPUs) > 1 && k.nextPID >= secondaryStackSlot0
}

// newTask allocates a task struct and kernel stack; the task is affined
// to the executing core. Callers must have checked taskSlotsExhausted.
func (k *Kernel) newTask(ppid, progID int) *Task {
	pid := k.nextPID
	k.nextPID++
	if len(k.CPUs) > 1 && pid >= secondaryStackSlot0 {
		// Unreachable when callers honour taskSlotsExhausted; a PID here
		// would corrupt the secondary boot stacks.
		panic("kernel: task stack arena exhausted")
	}
	addr := k.heapAlloc(TaskSize)
	stackBase := StackBase + uint64(pid)*StackSize
	t := &Task{
		PID: pid, PPID: ppid, Addr: addr,
		StackTop: stackBase + StackSize,
		State:    TaskBlocked,
		ProgID:   progID,
		CPU:      k.active,
	}
	ram := k.CPU.Bus.RAM
	pa := KVAToPA(addr)
	ram.Write64(pa+TaskPID, uint64(pid))
	ram.Write64(pa+TaskPPID, uint64(ppid))
	ram.Write64(pa+TaskStack, stackBase)
	k.tasks[pid] = t
	k.tables[pid] = mmu.NewTable()
	return t
}

// loadUserSpace (re)builds a task's user address space from a program.
func (k *Kernel) loadUserSpace(t *Task, prog *Program) {
	tbl := mmu.NewTable()
	k.tables[t.PID] = tbl
	ram := k.CPU.Bus.RAM
	// Text.
	text := prog.image.Sections[".utext"].Bytes
	for off := uint64(0); off < uint64(len(text))+mmu.PageSize; off += mmu.PageSize {
		tbl.Map(UserTextBase+off, UVAToPA(t.PID, UserTextBase+off), mmu.UserText)
	}
	ram.WriteBytes(UVAToPA(t.PID, UserTextBase), text)
	k.CPU.InvalidateDecode() // host-side code write bypasses store tracking
	// Data window (buffers).
	for off := uint64(0); off < 0x10000; off += mmu.PageSize {
		tbl.Map(UserDataBase+off, UVAToPA(t.PID, UserDataBase+off), mmu.UserData)
	}
	// Stack.
	for off := uint64(0); off <= UserStackSize; off += mmu.PageSize {
		va := UserStackTop - off
		tbl.Map(va, UVAToPA(t.PID, va), mmu.UserData)
	}
	for i, cur := range k.currents {
		if cur == t {
			k.CPUs[i].MMU.TT0 = tbl
		}
	}
}

// cloneUserSpace maps the child's address space: text shared read-only
// with the parent, stack and data copied.
func (k *Kernel) cloneUserSpace(parent, child *Task) {
	src := k.tables[parent.PID]
	tbl := mmu.NewTable()
	k.tables[child.PID] = tbl
	ram := k.CPU.Bus.RAM
	prog := k.programs[parent.ProgID]
	textLen := uint64(0)
	if prog != nil {
		textLen = uint64(len(prog.image.Sections[".utext"].Bytes))
	}
	for off := uint64(0); off < textLen+mmu.PageSize; off += mmu.PageSize {
		if pte, ok := src.Lookup(UserTextBase + off); ok {
			tbl.Map(UserTextBase+off, pte.PA, mmu.UserText) // shared
		}
	}
	copyRange := func(va, size uint64) {
		for off := uint64(0); off < size; off += mmu.PageSize {
			tbl.Map(va+off, UVAToPA(child.PID, va+off), mmu.UserData)
			data := ram.ReadBytes(UVAToPA(parent.PID, va+off), mmu.PageSize)
			ram.WriteBytes(UVAToPA(child.PID, va+off), data)
		}
	}
	copyRange(UserDataBase, 0x10000)
	copyRange(UserStackTop-UserStackSize, UserStackSize+mmu.PageSize)
}

// RegisterProgram makes a user program exec-able under the given id.
func (k *Kernel) RegisterProgram(id int, p *Program) {
	k.programs[id] = p
}

// Spawn creates the initial user task for a program on the boot core
// and makes it current.
func (k *Kernel) Spawn(progID int) (*Task, error) {
	return k.SpawnOn(0, progID)
}

// SpawnOn creates the initial user task for a program on the given core
// and makes it that core's current task, reviving the core if it was
// parked. It is the host-side dispatch path of the SMP model: per-core
// task sets, entered exactly as Spawn always entered the boot core.
func (k *Kernel) SpawnOn(cpuID, progID int) (*Task, error) {
	if cpuID < 0 || cpuID >= len(k.CPUs) {
		return nil, fmt.Errorf("kernel: no cpu %d", cpuID)
	}
	prog := k.programs[progID]
	if prog == nil {
		return nil, fmt.Errorf("kernel: no program %d", progID)
	}
	if k.taskSlotsExhausted() {
		return nil, fmt.Errorf("kernel: task stack arena exhausted")
	}
	savedActive := k.active
	k.active = cpuID
	defer func() { k.active = savedActive }()
	c := k.CPUs[cpuID]
	t := k.newTask(0, progID)
	t.Keys = k.rng.GenerateKeys()
	k.writeTaskKeys(t)
	k.loadUserSpace(t, prog)
	t.State = TaskRunnable
	k.currents[cpuID] = t
	k.parked[cpuID] = false
	k.CPU.Bus.RAM.Write64(percpuPA(cpuID)+PerCPUHalt, 0) // clear any park flag
	c.MMU.TT0 = k.tables[t.PID]
	// Enter user mode directly.
	c.WriteSys(insn.TPIDR_EL1, t.Addr)
	c.SetSP(1, t.StackTop)
	c.SetSP(0, UserStackTop)
	c.EL = 0
	c.PC = prog.entryVA
	return t, nil
}

// SMPQuantum is the round-robin time slice of the deterministic SMP
// scheduler, in instructions. Any fixed value keeps runs
// byte-reproducible; 4096 is small enough for tight cross-core
// interactions (pipe wakeups land within a slice of the writer) and
// large enough that slice-switch overhead vanishes.
const SMPQuantum = 4096

// Run executes until a halt condition or the instruction budget.
//
// Uniprocessor machines run the boot core directly — bit-for-bit the
// pre-SMP behaviour. SMP machines interleave the unparked cores
// round-robin in fixed instruction quanta on one host goroutine: the
// schedule is a pure function of guest state, so repeated runs are
// byte-identical (the determinism contract every suite depends on).
// Run returns when the boot core stops (HLT or error), when the machine
// halts, or when the total budget is exhausted; a secondary core's HLT
// parks that core and the run continues.
func (k *Kernel) Run(maxInstrs uint64) cpu.Stop {
	if len(k.CPUs) == 1 {
		k.active = 0
		return k.CPU.Run(maxInstrs)
	}
	return k.runSMP(maxInstrs)
}

func (k *Kernel) runSMP(maxInstrs uint64) cpu.Stop {
	remaining := maxInstrs
	for remaining > 0 {
		ranAny := false
		for i := range k.CPUs {
			if k.parked[i] || remaining == 0 {
				continue
			}
			slice := uint64(SMPQuantum)
			if slice > remaining {
				slice = remaining
			}
			k.active = i
			before := k.CPUs[i].Retired
			stop := k.CPUs[i].Run(slice)
			used := k.CPUs[i].Retired - before
			if used > remaining {
				remaining = 0
			} else {
				remaining -= used
			}
			ranAny = true
			switch stop.Kind {
			case cpu.StopError:
				k.active = 0
				return stop
			case cpu.StopHLT:
				// The core finished (workload exit, park request, panic):
				// retire it from the rotation. SpawnOn revives it.
				k.parked[i] = true
				if i == 0 || k.Halted {
					k.active = 0
					return stop
				}
			}
		}
		if !ranAny {
			break // every core parked
		}
	}
	k.active = 0
	return cpu.Stop{Kind: cpu.StopLimit}
}

// Current returns the boot core's current task.
func (k *Kernel) Current() *Task { return k.currents[0] }

// CurrentOn returns the given core's current task.
func (k *Kernel) CurrentOn(cpuID int) *Task { return k.currents[cpuID] }

// Parked reports whether a core is out of the scheduling rotation.
func (k *Kernel) Parked(cpuID int) bool { return k.parked[cpuID] }

// Task returns a task by pid.
func (k *Kernel) Task(pid int) *Task { return k.tasks[pid] }

// fileByFDOf resolves a task's fd to its file-state mirror.
func (k *Kernel) fileByFDOf(t *Task, fd int) *fileState {
	if fd < 0 || fd >= TaskNFiles || t == nil {
		return nil
	}
	va := k.CPU.Bus.RAM.Read64(KVAToPA(t.Addr) + TaskFiles + uint64(8*fd))
	return k.files[va]
}

// FileByFD resolves the boot core's current task's fd to its file-state
// mirror.
func (k *Kernel) FileByFD(fd int) *fileState {
	return k.fileByFDOf(k.currents[0], fd)
}

// FileAddrByFD returns the guest VA of the boot core's current task's
// open file.
func (k *Kernel) FileAddrByFD(fd int) uint64 {
	if f := k.FileByFD(fd); f != nil {
		return f.addr
	}
	return 0
}

// FileAddrByFDOn is FileAddrByFD for another core's current task (the
// cross-core attack scenarios inspect both victims' fd tables).
func (k *Kernel) FileAddrByFDOn(cpuID, fd int) uint64 {
	if cpuID < 0 || cpuID >= len(k.currents) {
		return 0
	}
	if f := k.fileByFDOf(k.currents[cpuID], fd); f != nil {
		return f.addr
	}
	return 0
}

// errno encodes a negative errno as the uint64 register representation.
func errno(e int64) uint64 { return uint64(e) }
