package kernel

// Snapshot capture and restore: the kernel half of the snapshot/fork/
// reset subsystem (see DESIGN.md §7). CaptureState freezes a booted —
// possibly mid-execution — machine into an immutable State; NewFromState
// forks an independent Kernel from it in O(live host objects) without
// re-running codegen, the §4.1 verifier, or boot; RestoreState rewinds a
// dirtied kernel to the captured point in O(pages touched).

import (
	"fmt"

	"camouflage/internal/asm"
	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/hyp"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/pac"
)

// State is an immutable capture of a booted kernel. It deep-copies every
// mutable host-side mirror and freezes guest RAM copy-on-write, so any
// number of kernels can be forked from (or reset to) it concurrently.
// The built image, codegen configuration and program registry are shared:
// they are immutable after construction.
type State struct {
	img  *asm.Image
	cfg  *codegen.Config
	opts Options
	keys pac.KeySet
	rng  *boot.PRNG

	frozen *mem.Frozen
	// cpus holds one register file per core (index 0: boot core).
	cpus  []cpu.State
	mmuOn bool
	tt1   *mmu.Table
	s2    *mmu.Stage2
	hyp   hyp.State
	uart  []byte
	net   mem.NetDevState
	blk   mem.BlockDevState

	heapNext uint64
	nextPID  int
	tasks    map[int]Task
	// currentPIDs/currents mirror each core's current task (deep
	// copies; kept even when zombied out of tasks). parked mirrors the
	// scheduler rotation and bootHalt the HLT code that parked the
	// boot core; activeCPU the core executing at capture.
	currentPIDs []int
	currents    []*Task
	parked      []bool
	bootHalt    uint16
	activeCPU   int
	tables      map[int]*mmu.Table
	programs    map[int]*Program
	pipes       map[uint64][]byte
	nextPipe    uint64
	files       map[uint64]fileState
	credObj     uint64
	extraOps    map[int]uint64
	modNext     uint64
	pacFailures int
	threshold   int
	oops        []OopsRecord
	halted      bool
	svcCalls    [SvcMax]uint64
	bootCycles  uint64
}

// BootCycles returns the captured machine's boot cost (reporting).
func (st *State) BootCycles() uint64 { return st.bootCycles }

// FrozenPages returns the number of RAM pages in the copy-on-write base.
func (st *State) FrozenPages() int { return st.frozen.Pages() }

// CaptureState freezes the kernel into an immutable State. The live
// kernel keeps running on a fresh copy-on-write overlay, so capturing is
// non-destructive; its cost is one O(populated pages) map merge plus the
// host-mirror deep copies — no guest memory is copied.
func (k *Kernel) CaptureState() *State {
	st := &State{
		img:  k.Img,
		cfg:  k.Cfg,
		opts: k.opts,
		keys: k.keys,
		rng:  k.rng.Clone(),

		frozen: k.CPU.Bus.RAM.Freeze(),
		mmuOn:  k.CPU.MMU.Enabled,
		tt1:    k.CPU.MMU.TT1.Clone(),
		s2:     k.CPU.MMU.S2.Clone(),
		hyp:    k.Hyp.CaptureState(),
		uart:   k.UART.CaptureState(),
		net:    k.Net.CaptureState(),
		blk:    k.Blk.CaptureState(),

		parked:    append([]bool(nil), k.parked...),
		bootHalt:  k.bootHalt,
		activeCPU: k.active,

		heapNext:    k.heapNext,
		nextPID:     k.nextPID,
		tasks:       make(map[int]Task, len(k.tasks)),
		tables:      make(map[int]*mmu.Table, len(k.tables)),
		programs:    make(map[int]*Program, len(k.programs)),
		pipes:       make(map[uint64][]byte, len(k.pipes)),
		nextPipe:    k.nextPipe,
		files:       make(map[uint64]fileState, len(k.files)),
		credObj:     k.credObj,
		extraOps:    make(map[int]uint64, len(k.extraOps)),
		modNext:     k.modNext,
		pacFailures: k.PACFailures,
		threshold:   k.Threshold,
		oops:        append([]OopsRecord(nil), k.Oops...),
		halted:      k.Halted,
		svcCalls:    k.ServiceCalls,
		bootCycles:  k.BootCycles,
	}
	for _, c := range k.CPUs {
		st.cpus = append(st.cpus, c.CaptureState())
	}
	for pid, t := range k.tasks {
		st.tasks[pid] = *t
	}
	st.currentPIDs = make([]int, len(k.currents))
	st.currents = make([]*Task, len(k.currents))
	for i, cur := range k.currents {
		if cur != nil {
			st.currentPIDs[i] = cur.PID
			cp := *cur
			st.currents[i] = &cp
		}
	}
	//camo:nondet Clone is a pure deep copy; map-rebuild order is irrelevant to the result
	for pid, tbl := range k.tables {
		st.tables[pid] = tbl.Clone()
	}
	for id, p := range k.programs {
		st.programs[id] = p
	}
	for id, p := range k.pipes {
		// Only the unread tail is state; the read cursor resets to 0.
		st.pipes[id] = p.buf[p.r:len(p.buf):len(p.buf)]
	}
	for va, f := range k.files {
		st.files[va] = *f
	}
	for path, ops := range k.extraOps {
		st.extraOps[path] = ops
	}
	return st
}

// restoreHostMirrors fills the kernel's host-side bookkeeping from the
// state's deep copies (shared by fork and reset).
func (k *Kernel) restoreHostMirrors(st *State) {
	k.heapNext = st.heapNext
	k.nextPID = st.nextPID
	k.tasks = make(map[int]*Task, len(st.tasks))
	for pid, t := range st.tasks {
		cp := t
		k.tasks[pid] = &cp
	}
	k.currents = make([]*Task, len(st.currents))
	for i, cur := range st.currents {
		if cur == nil {
			continue
		}
		if t := k.tasks[st.currentPIDs[i]]; t != nil {
			k.currents[i] = t
		} else {
			// The captured current task had already exited (zombie):
			// rebuild it outside the task table, as the live kernel had it.
			cp := *cur
			k.currents[i] = &cp
		}
	}
	k.parked = append([]bool(nil), st.parked...)
	k.bootHalt = st.bootHalt
	k.active = st.activeCPU
	k.tables = make(map[int]*mmu.Table, len(st.tables))
	//camo:nondet Clone is a pure deep copy; map-rebuild order is irrelevant to the result
	for pid, tbl := range st.tables {
		k.tables[pid] = tbl.Clone()
	}
	k.programs = make(map[int]*Program, len(st.programs))
	for id, p := range st.programs {
		k.programs[id] = p
	}
	k.pipes = make(map[uint64]*pipeState, len(st.pipes))
	for id, buf := range st.pipes {
		k.pipes[id] = &pipeState{buf: buf[:len(buf):len(buf)]}
	}
	k.nextPipe = st.nextPipe
	k.files = make(map[uint64]*fileState, len(st.files))
	for va, f := range st.files {
		cp := f
		k.files[va] = &cp
	}
	k.credObj = st.credObj
	k.extraOps = make(map[int]uint64, len(st.extraOps))
	for path, ops := range st.extraOps {
		k.extraOps[path] = ops
	}
	k.modNext = st.modNext
	k.PACFailures = st.pacFailures
	k.Threshold = st.threshold
	k.Oops = append([]OopsRecord(nil), st.oops...)
	k.Halted = st.halted
	k.ServiceCalls = st.svcCalls
	k.BootCycles = st.bootCycles
	k.rng = st.rng.Clone()

	// Point each core's user table at its current task's clone (or an
	// empty table when the capture predates the first spawn there).
	for i, c := range k.CPUs {
		if cur := k.currents[i]; cur != nil && k.tables[cur.PID] != nil {
			c.MMU.TT0 = k.tables[cur.PID]
		} else {
			c.MMU.TT0 = mmu.NewTable()
		}
	}
}

// NewFromState forks an independent kernel from a captured state: a new
// CPU, bus and MMU wired to fresh device mirrors, guest RAM backed
// copy-on-write by the frozen page store, and every host mirror deep-
// copied. No codegen, verification or boot runs; the fork is ready to
// execute from exactly the captured PC. Safe to call concurrently on the
// same State.
func NewFromState(st *State) (*Kernel, error) {
	c := cpu.New(cpu.Features{PAuth: !st.opts.V80()})
	c.Bus.RAM = mem.NewPhysFrom(st.frozen)
	c.MMU.Enabled = st.mmuOn
	c.MMU.TT1 = st.tt1.Clone()
	c.MMU.S2 = st.s2.Clone()

	k := &Kernel{
		CPU:  c,
		CPUs: []*cpu.CPU{c},
		UART: &mem.UART{},
		Net:  &mem.NetDev{},
		Blk:  mem.NewBlockDev(),
		Cfg:  st.cfg,
		Img:  st.img,
		opts: st.opts,
		keys: st.keys,
	}
	if err := k.mapDevices(); err != nil {
		return nil, err
	}
	k.UART.RestoreState(st.uart)
	k.Net.RestoreState(st.net)
	k.Blk.RestoreState(st.blk)

	k.Hyp = hyp.Attach(c)
	for i := 1; i < len(st.cpus); i++ {
		p := c.NewPeer(i)
		k.Hyp.AttachPeer(p)
		k.CPUs = append(k.CPUs, p)
	}
	k.Hyp.RestoreState(st.hyp)

	k.restoreHostMirrors(st)
	for i, cs := range st.cpus {
		k.CPUs[i].RestoreState(cs)
	}
	return k, nil
}

// RestoreState rewinds a kernel to a captured state in O(pages touched):
// the RAM overlay is dropped back to the state's frozen base and every
// host mirror is restored from the deep copies. The kernel must descend
// from the same built image as the state (normally: it was forked from
// it, or the state was captured from it).
func (k *Kernel) RestoreState(st *State) error {
	if k.Img != st.img {
		return fmt.Errorf("kernel: restore across different built images")
	}
	if len(k.CPUs) != len(st.cpus) {
		return fmt.Errorf("kernel: restore across different CPU counts (%d vs %d)",
			len(k.CPUs), len(st.cpus))
	}
	k.CPU.Bus.RAM.ResetTo(st.frozen)
	k.UART.RestoreState(st.uart)
	k.Net.RestoreState(st.net)
	k.Blk.RestoreState(st.blk)
	for _, c := range k.CPUs {
		c.MMU.Enabled = st.mmuOn
	}
	k.CPU.MMU.TT1.RestoreFrom(st.tt1)
	k.CPU.MMU.S2.RestoreFrom(st.s2)
	k.Hyp.RestoreState(st.hyp)
	k.restoreHostMirrors(st)
	// CPU restore last: it drops the decoded-block cache and flushes the
	// TLBs, sealing the rewind on every core.
	for i, cs := range st.cpus {
		k.CPUs[i].RestoreState(cs)
	}
	return nil
}
