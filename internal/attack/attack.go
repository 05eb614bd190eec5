// Package attack implements the adversary of the paper's threat model
// (§3.1): full control of unprivileged user processes plus a kernel
// memory-corruption primitive giving arbitrary read/write of kernel
// memory (modelled as direct host access to guest RAM). The attacker
// cannot modify write-protected memory (rodata, XOM) and does not know
// the PAuth keys.
//
// The harness reproduces the security evaluation of §6.2: pointer
// injection, pointer reuse/replay, brute force against the 15-bit PAC,
// and verification-oracle probing — each against the protection levels
// the paper compares.
//
// Each uniprocessor attack is defined once, as a scenario: arm runs the
// victim to the attack window, strike corrupts guest RAM, judge
// classifies the aftermath. The §6.2 matrix and the differential
// campaign (campaign.go) strike, run and judge the same scenario table
// the same way: a matrix row is the scenario struck once with the
// paper's exact corruption (a nil PRNG), a campaign cell is the same
// armed machine forked and struck with mutated corruptions. Only the
// cross-core replay keeps two forms over one shared arm: its matrix row
// drains in-flight dispatches before planting the sentinel, its
// campaign strike does not.
package attack

import (
	"context"
	"fmt"

	"camouflage/internal/boot"
	"camouflage/internal/core"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/mem"
	"camouflage/internal/pac"
	"camouflage/internal/snapshot"
)

// Outcome classifies an attack run.
type Outcome int

// Outcomes.
const (
	// OutcomeHijacked: attacker-chosen code executed in kernel context.
	OutcomeHijacked Outcome = iota
	// OutcomeDetected: the corruption was caught (PAC failure → fault).
	OutcomeDetected
	// OutcomeInconclusive: neither marker fired within budget.
	OutcomeInconclusive
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeHijacked:
		return "HIJACKED"
	case OutcomeDetected:
		return "detected"
	}
	return "inconclusive"
}

// Report is the result of one attack under one configuration.
type Report struct {
	Attack  string
	Level   string
	Outcome Outcome
	// PACFailures observed during the attack.
	PACFailures int
	Detail      string
}

// sentinel fills a replay victim's read buffer: a genuine /dev/zero read
// clears it, a silently replayed null_ops read (EOF) leaves it.
const sentinel = 0x5E5E5E5E5E5E5E5E

// gadgetCounter reads the hijack marker: the work counter incremented by
// work_handler, which all attacks use as their "attacker code" target.
func gadgetCounter(k *kernel.Kernel) uint64 {
	return k.CPU.Bus.RAM.Read64(kernel.KVAToPA(kernel.DataBase) + kernel.StaticWorkOffset + kernel.WorkData)
}

// kernelOopsed reports a kernel-mode fault: a crash, not a hijack.
func kernelOopsed(k *kernel.Kernel) bool {
	for _, o := range k.Oops {
		if o.Kernel {
			return true
		}
	}
	return false
}

// Level is one §6.2 comparison build: one of core's protection levels,
// or the §7 zero-modifier ablation of the full build.
type Level struct {
	// Name labels the build in the matrix and campaign renderings.
	Name    string
	level   core.ProtectionLevel
	zeroMod bool
}

// zeroModifier is the one build the attack harness adds to core's
// table: full protection with pointers signed under a zero modifier
// instead of the §4.3 object-address modifier (Apple's vtable scheme,
// §7), which preserves memcpy but admits reuse attacks.
var zeroModifier = Level{Name: "full/zero-mod", level: core.LevelFull, zeroMod: true}

// LevelOf returns the §6.2 build of a core protection level.
func LevelOf(l core.ProtectionLevel) Level { return Level{Name: l.String(), level: l} }

// Levels returns the §6.2 builds in matrix order: core's levels, then
// the zero-modifier ablation.
func Levels() []Level {
	var out []Level
	for _, l := range core.Levels() {
		out = append(out, LevelOf(l))
	}
	return append(out, zeroModifier)
}

// LevelByName finds a §6.2 build by its name: the one level check of
// the campaign runner and the service daemon's campaign route.
func LevelByName(name string) (Level, error) {
	for _, lv := range Levels() {
		if lv.Name == name {
			return lv, nil
		}
	}
	return Level{}, fmt.Errorf("attack: unknown level %q", name)
}

// options lowers the build to the kernel options of one cell.
func (lv Level) options(seed uint64, threshold, cpus int) kernel.Options {
	opts := core.KernelOptionsFor(lv.level, core.Options{Seed: seed, FailureThreshold: threshold, CPUs: cpus})
	opts.Config.ZeroModifier = lv.zeroMod
	return opts
}

// bootWith builds and boots a kernel for an attack run (warm-pooled:
// repeated matrix/benchmark/campaign runs fork instead of rebooting).
func bootWith(lv Level, cpus int, seed uint64) (*kernel.Kernel, error) {
	opts := lv.options(seed, 64, cpus)
	snap, err := snapshot.Shared.SnapshotFor(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		return nil, err
	}
	return snap.Fork()
}

// spinReadProgram is the standard victim: open a path, then read it in a
// tight loop (the dispatch the f_ops attacks corrupt).
func spinReadProgram(path uint64) func(u *kernel.UserASM) {
	return func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, path, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.A.Label("spin")
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.MovImm(insn.X1, kernel.UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(kernel.SysRead)
		u.A.B("spin")
	}
}

// pipeBlockerProgram is the ROP victim: fork a child that blocks reading
// an empty pipe (its kernel stack then holds live frame records) while
// the parent yields through the attack window before writing the pipe.
func pipeBlockerProgram() func(u *kernel.UserASM) {
	return func(u *kernel.UserASM) {
		u.Syscall(kernel.SysPipe2, kernel.UserDataBase+0x100)
		u.SyscallReg(kernel.SysClone)
		u.A.CBZ(insn.X0, "child")
		// Parent: yield a few times (attack window), then write the pipe.
		u.CounterLoop("spins", insn.X21, 50, func() {
			u.SyscallReg(kernel.SysSchedYield)
		})
		u.MovImm(insn.X9, kernel.UserDataBase+0x100)
		u.A.I(insn.LDR(insn.X0, insn.X9, 8))
		u.MovImm(insn.X1, kernel.UserDataBase)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(kernel.SysWrite)
		u.Exit(0)
		// Child: block reading the empty pipe.
		u.A.Label("child")
		u.MovImm(insn.X9, kernel.UserDataBase+0x100)
		u.A.I(insn.LDR(insn.X0, insn.X9, 0))
		u.MovImm(insn.X1, kernel.UserDataBase+0x40)
		u.MovImm(insn.X2, 8)
		u.SyscallReg(kernel.SysRead)
		u.Exit(0)
	}
}

// replayVictimProgram opens /dev/null (fd 0) and /dev/zero (fd 1), then
// keeps reading fd 1 — the dispatch the replay attack redirects.
func replayVictimProgram() func(u *kernel.UserASM) {
	return func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevNull, 0) // fd 0
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0) // fd 1
		u.A.Label("spin")
		u.Syscall(kernel.SysRead, 1, kernel.UserDataBase, 8)
		u.A.B("spin")
	}
}

// window is the attack window located by arming a scenario: VAs and
// slots that are valid in every fork of the armed machine, because
// forking is exact.
type window struct {
	fileVA  uint64   // victim's open file (f_ops / f_cred scenarios)
	fileVA2 uint64   // second file (replay donor/recipient)
	slots   []uint64 // saved-return-address slots (ROP scenario)
	forged  uint64   // scratch heap for the forged object (f_ops / f_cred swap)
	gadget  uint64
	pacMask uint64
}

// newWindow fills the fields every scenario shares.
func newWindow(k *kernel.Kernel) window {
	mask, _ := k.CPU.Signer.Config().PACField(true)
	return window{gadget: k.Img.Symbols["work_handler"], pacMask: mask}
}

// scenario is one §6.2 attack: arm runs the victim on a machine booted
// from seed to the attack window, strike corrupts its RAM (a nil rng
// means the paper's exact corruption, a campaign PRNG a mutation of
// it), and judge classifies the aftermath after budget instructions,
// with the detail the matrix prints. sealed, where set, reports that
// judge can no longer change its verdict, whatever the rest of the
// budget does.
//
// A strike gets guest RAM and nothing else, so a struck fork differs
// from its armed snapshot only in its copy-on-write overlay; the
// campaign keys its strike memo on that (campaign.go). Anything a
// strike needs from the kernel, such as scratch heap, arm allocates.
type scenario struct {
	name   string
	seed   uint64
	budget uint64
	arm    func(k *kernel.Kernel) (window, error)
	strike func(ram *mem.Phys, w window, rng *boot.PRNG)
	judge  func(k *kernel.Kernel, w window, before uint64) (Outcome, string)
	sealed func(k *kernel.Kernel, w window, before uint64) bool
}

// run runs a struck machine for the scenario's budget and judges the
// aftermath; before is the gadget counter read before the strike. With
// seal set, a scenario with a sealed rule stops once its verdict is
// sealed. The campaign seals; the matrix runs the whole budget, because
// its detail counts what the budget did.
func (sc scenario) run(k *kernel.Kernel, w window, before uint64, seal bool) (Outcome, string) {
	k.CPU.InvalidateDecode()
	var done func() bool
	if seal && sc.sealed != nil {
		done = func() bool { return sc.sealed(k, w, before) }
	}
	k.RunUntil(sc.budget, done)
	return sc.judge(k, w, before)
}

// attempt is the matrix's strike: the paper's exact corruption on an
// armed machine, then the scenario's whole budget.
func (sc scenario) attempt(k *kernel.Kernel, w window) (Outcome, string) {
	before := gadgetCounter(k)
	sc.strike(k.CPU.Bus.RAM, w, nil)
	return sc.run(k, w, before, false)
}

// report is the scenario's matrix row: one unmutated strike on a
// freshly armed machine with the given vCPU count.
func (sc scenario) report(lv Level, cpus int) (Report, error) {
	k, err := bootWith(lv, cpus, sc.seed)
	if err != nil {
		return Report{}, err
	}
	w, err := sc.arm(k)
	if err != nil {
		return Report{}, fmt.Errorf("%s/%s: %w", sc.name, lv.Name, err)
	}
	out, detail := sc.attempt(k, w)
	return Report{Attack: sc.name, Level: lv.Name, Outcome: out,
		PACFailures: k.PACFailures, Detail: detail}, nil
}

// mutatePointer forges a pointer at the target address. A nil rng
// returns the target itself; otherwise one in four mutations leaves the
// pointer canonical (the corruption that defeats an *unprotected*
// kernel), the rest guess random PAC-field bits (the §5.4 forgery
// against a signed slot).
func mutatePointer(rng *boot.PRNG, target, mask uint64) uint64 {
	if rng == nil || rng.Uint64()%4 == 0 {
		return target
	}
	return (target &^ mask) | (rng.Uint64() & mask)
}

// judgeByGadget is the default classifier. Hijack wins: if the gadget
// ran, detection afterwards does not undo the damage. Then PAC failures,
// then plain kernel crashes.
func judgeByGadget(k *kernel.Kernel, _ window, before uint64) (Outcome, string) {
	if n := gadgetCounter(k); n > before {
		return OutcomeHijacked, fmt.Sprintf("gadget executed %d time(s)", n-before)
	}
	if k.PACFailures > 0 {
		return OutcomeDetected, fmt.Sprintf("%d PAC failure(s), offender killed", k.PACFailures)
	}
	if kernelOopsed(k) {
		return OutcomeDetected, "kernel fault without PAC (crash, not hijack)"
	}
	return OutcomeInconclusive, ""
}

// gadgetRan seals judgeByGadget's verdict: once the gadget counter has
// moved the strike is hijacked, and nothing later undoes that.
func gadgetRan(k *kernel.Kernel, _ window, before uint64) bool {
	return gadgetCounter(k) > before
}

// baseScenarios returns the uniprocessor attacks in matrix order.
func baseScenarios() []scenario {
	return []scenario{ropScenario, fopsSwapScenario, fopsReplayScenario, credSwapScenario}
}

// ROPFrameRecord is the backward-edge attack of §2.1: overwrite saved
// return addresses in the frame records of a task blocked inside the
// kernel, then let it resume.
func ROPFrameRecord(lv Level) (Report, error) {
	return ropScenario.report(lv, 1)
}

var ropScenario = scenario{
	name: "ROP (frame-record smash)", seed: 23, budget: 5_000_000,
	arm: armBlocked(5_000),
	// Unmutated, every located slot gets the gadget; a campaign strike
	// smashes a random non-empty subset with mutated pointers.
	strike: func(ram *mem.Phys, w window, rng *boot.PRNG) {
		smashed := false
		for _, va := range w.slots {
			if rng != nil && rng.Uint64()&1 == 0 {
				continue
			}
			ram.Write64(kernel.KVAToPA(va), mutatePointer(rng, w.gadget, w.pacMask))
			smashed = true
		}
		if !smashed {
			va := w.slots[rng.Uint64()%uint64(len(w.slots))]
			ram.Write64(kernel.KVAToPA(va), mutatePointer(rng, w.gadget, w.pacMask))
		}
	},
	// The detail counts the slots the unmutated strike smashes (all of
	// them); the campaign discards it.
	judge: func(k *kernel.Kernel, w window, before uint64) (Outcome, string) {
		out, detail := judgeByGadget(k, w, before)
		return out, fmt.Sprintf("%s; %d slots smashed", detail, len(w.slots))
	},
	sealed: gadgetRan,
}

// armBlocked arms the ROP window: it runs the pipe blocker in steps of
// step instructions until the child (pid 2) is blocked in pipe_read, so
// the window opens up to step instructions after the child blocks, and
// locates the saved return addresses on the child's kernel stack.
func armBlocked(step uint64) func(k *kernel.Kernel) (window, error) {
	return func(k *kernel.Kernel) (window, error) {
		w := newWindow(k)
		prog, err := kernel.BuildProgram("blocker", pipeBlockerProgram())
		if err != nil {
			return w, err
		}
		k.RegisterProgram(1, prog)
		if _, err := k.Spawn(1); err != nil {
			return w, err
		}
		var victim *kernel.Task
		for i := 0; i < 300; i++ {
			k.Run(step)
			if t := k.Task(2); t != nil && t.State == kernel.TaskBlocked {
				victim = t
				break
			}
			if k.Halted {
				break
			}
		}
		if victim == nil {
			return w, fmt.Errorf("victim never blocked")
		}
		// Saved return addresses: any quad on the victim's kernel stack
		// whose PAC-stripped value lands in kernel text.
		textLo := k.Img.Symbols["start_kernel"] &^ 0xFFFF
		textHi := textLo + 0x4_0000
		ram := k.CPU.Bus.RAM
		stackBase := victim.StackTop - kernel.StackSize
		for off := uint64(0); off < kernel.StackSize; off += 8 {
			va := stackBase + off
			v := ram.Read64(kernel.KVAToPA(va))
			if v == 0 {
				continue
			}
			if s := k.CPU.Signer.Strip(v); s >= textLo && s < textHi {
				w.slots = append(w.slots, va)
			}
		}
		if len(w.slots) == 0 {
			return w, fmt.Errorf("no return addresses on victim stack")
		}
		return w, nil
	}
}

// FOpsSwap is the forward-edge/DFI attack of §4.5: replace an open file's
// f_ops pointer with a forged operations table in writable memory whose
// read member is the attacker's gadget.
func FOpsSwap(lv Level) (Report, error) {
	return fopsSwapScenario.report(lv, 1)
}

var fopsSwapScenario = scenario{
	name: "f_ops swap (JOP)", seed: 21, budget: 3_000_000,
	arm: func(k *kernel.Kernel) (window, error) {
		w := newWindow(k)
		prog, err := kernel.BuildProgram("victim", spinReadProgram(kernel.PathDevZero))
		if err != nil {
			return w, err
		}
		k.RegisterProgram(1, prog)
		if _, err := k.Spawn(1); err != nil {
			return w, err
		}
		k.Run(400_000) // open + a few benign reads
		if w.fileVA = k.FileAddrByFD(0); w.fileVA == 0 {
			return w, fmt.Errorf("victim fd not open")
		}
		w.forged = k.AllocScratch(kernel.OpsSize)
		return w, nil
	},
	// Arbitrary kernel R/W: forge an ops table pointing read at the
	// gadget, then swap f_ops. (.rodata itself is unwritable — §3.1 — so
	// the forgery must live in writable memory, which is exactly why the
	// pointer *to* the table needs DFI.)
	strike: func(ram *mem.Phys, w window, rng *boot.PRNG) {
		ram.Write64(kernel.KVAToPA(w.forged)+kernel.OpsRead, w.gadget)
		ram.Write64(kernel.KVAToPA(w.fileVA)+kernel.FileOps, mutatePointer(rng, w.forged, w.pacMask))
	},
	judge:  judgeByGadget,
	sealed: gadgetRan,
}

// FOpsReplay is the §6.2.1 reuse attack: transplant a correctly signed
// f_ops value from one file object into another of the same type. Under
// the §4.3 address-bound modifier this fails; under the zero-modifier
// ablation (Apple's vtable scheme, §7) it succeeds if the two files use
// different operations tables (privilege confusion between drivers).
func FOpsReplay(lv Level) (Report, error) {
	return fopsReplayScenario.report(lv, 1)
}

var fopsReplayScenario = scenario{
	name: "f_ops replay (reuse)", seed: 22, budget: 2_000_000,
	arm: func(k *kernel.Kernel) (window, error) {
		w := newWindow(k)
		prog, err := kernel.BuildProgram("replayvictim", replayVictimProgram())
		if err != nil {
			return w, err
		}
		k.RegisterProgram(1, prog)
		if _, err := k.Spawn(1); err != nil {
			return w, err
		}
		k.Run(500_000)
		w.fileVA = k.FileAddrByFD(0)  // /dev/null
		w.fileVA2 = k.FileAddrByFD(1) // /dev/zero
		if w.fileVA == 0 || w.fileVA2 == 0 {
			return w, fmt.Errorf("fds not open")
		}
		return w, nil
	},
	// Transplant the signed f_ops of the *null* file into the *zero*
	// file: subsequent reads of /dev/zero would dispatch through
	// null_ops (read = EOF), silently redirecting the driver.
	strike: func(ram *mem.Phys, w window, rng *boot.PRNG) {
		transplant(ram, w, rng)
		ram.Write64(kernel.UVAToPA(1, kernel.UserDataBase), sentinel)
	},
	judge: func(k *kernel.Kernel, _ window, _ uint64) (Outcome, string) {
		if k.PACFailures > 0 {
			return OutcomeDetected, "cross-object transplant rejected"
		}
		if k.CPU.Bus.RAM.Read64(kernel.UVAToPA(1, kernel.UserDataBase)) == sentinel && k.Task(1) != nil {
			return OutcomeHijacked, "driver silently swapped: /dev/zero reads dispatch to null_ops"
		}
		return OutcomeInconclusive, ""
	},
}

// transplant copies the donor file's signed f_ops (w.fileVA) into the
// recipient file (w.fileVA2) — the "pointer replaced with another
// pointer of the same type" case. A nil rng moves the pointer
// unmodified; a campaign PRNG may instead flip a MAC bit or splice the
// donor's PAC onto the recipient's own ops target.
func transplant(ram *mem.Phys, w window, rng *boot.PRNG) {
	signed := ram.Read64(kernel.KVAToPA(w.fileVA) + kernel.FileOps)
	if rng != nil {
		switch rng.Uint64() % 3 {
		case 1:
			signed ^= 1 << 50 // also break the MAC itself
		case 2:
			own := ram.Read64(kernel.KVAToPA(w.fileVA2) + kernel.FileOps)
			signed = (own &^ w.pacMask) | (signed & w.pacMask)
		}
	}
	ram.Write64(kernel.KVAToPA(w.fileVA2)+kernel.FileOps, signed)
}

// crossCoreVictimProgram is the second core's victim: open /dev/zero
// (fd 0) and keep reading it — the dispatch the cross-core replay
// silently redirects — counting down pause iterations between reads.
func crossCoreVictimProgram(pause uint64) func(u *kernel.UserASM) {
	return func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0) // fd 0
		u.A.Label("spin")
		u.Syscall(kernel.SysRead, 0, kernel.UserDataBase, 8)
		if pause > 0 {
			u.CounterLoop("pause", insn.X21, pause, func() {})
		}
		u.A.B("spin")
	}
}

// armCrossCore arms both cross-core forms: the donor (pid 1, core 0)
// holds a correctly signed null_ops, the recipient (pid 2, core 1)
// keeps reading /dev/zero through the slot the transplant overwrites,
// pausing between reads (crossCoreVictimProgram).
func armCrossCore(k *kernel.Kernel, pause uint64) (window, error) {
	w := newWindow(k)
	donor, err := kernel.BuildProgram("replayvictim", replayVictimProgram())
	if err != nil {
		return w, err
	}
	sink, err := kernel.BuildProgram("ccvictim", crossCoreVictimProgram(pause))
	if err != nil {
		return w, err
	}
	k.RegisterProgram(1, donor)
	k.RegisterProgram(2, sink)
	if _, err := k.Spawn(1); err != nil {
		return w, err
	}
	if _, err := k.SpawnOn(1, 2); err != nil {
		return w, err
	}
	// Both victims open their files and settle into reads.
	k.Run(1_000_000)
	w.fileVA = k.FileAddrByFD(0)       // donor's /dev/null (core 0)
	w.fileVA2 = k.FileAddrByFDOn(1, 0) // recipient's /dev/zero (core 1)
	if w.fileVA == 0 || w.fileVA2 == 0 {
		return w, fmt.Errorf("fds not open")
	}
	return w, nil
}

// crossCoreVerdict classifies a cross-core transplant; swapped is the
// form's own evidence that the recipient dispatched through null_ops.
func crossCoreVerdict(k *kernel.Kernel, swapped bool) (Outcome, string) {
	if k.PACFailures > 0 {
		return OutcomeDetected, "cross-core transplant rejected on sibling core"
	}
	if swapped && k.Task(2) != nil {
		return OutcomeHijacked, "driver silently swapped across cores: core-1 reads dispatch to null_ops"
	}
	return OutcomeInconclusive, ""
}

// CrossCoreReplay is the SMP form of the §6.2.1 reuse attack, run on a
// real 2-vCPU machine instead of the synthetic ReplayCensus counts: a
// victim on core 0 holds a correctly signed f_ops pointer (signed under
// that core's — i.e. the whole kernel's — DB key), and the attacker
// transplants it into a file object a second victim, running
// concurrently on core 1, dispatches through. Kernel PAuth keys are
// per-boot, not per-core (every core installs the same XOM-hidden
// keys), so nothing about crossing cores weakens the transplant — what
// decides the outcome is the modifier: the §4.3 address-bound modifier
// rejects it on core 1's very next read, while the zero-modifier
// ablation authenticates it and the driver is silently swapped across
// cores. The machine has cpus vCPUs; with fewer than two, arming fails.
func CrossCoreReplay(lv Level, cpus int) (Report, error) {
	k, err := bootWith(lv, cpus, 25)
	if err != nil {
		return Report{}, err
	}
	w, err := armCrossCore(k, 0)
	if err != nil {
		return Report{}, fmt.Errorf("%s/%s: %w", crossCoreScenario.name, lv.Name, err)
	}
	transplant(k.CPU.Bus.RAM, w, nil)
	k.CPU.InvalidateDecode()

	// Drain: core 1 may be suspended mid-vfs_read with the *old* f_ops
	// already loaded into a register (the transplant raced a dispatch in
	// flight — real SMP semantics). A short slice lets that read retire
	// before the sentinel goes in, so the sentinel then witnesses only
	// post-transplant dispatches.
	k.Run(200_000)
	sentPA := kernel.UVAToPA(2, kernel.UserDataBase)
	k.CPU.Bus.RAM.Write64(sentPA, sentinel)
	k.Run(4_000_000)
	out, detail := crossCoreVerdict(k, k.CPU.Bus.RAM.Read64(sentPA) == sentinel)
	return Report{Attack: crossCoreScenario.name, Level: lv.Name, Outcome: out,
		PACFailures: k.PACFailures, Detail: detail}, nil
}

// crossCoreScenario is the campaign form of CrossCoreReplay: the strike
// transplants mutated forms of the donor's signed pointer across cores
// and plants the sentinel at once, with no drain.
var crossCoreScenario = scenario{
	name: "cross-core f_ops replay", seed: 29, budget: 6_000_000,
	arm: func(k *kernel.Kernel) (window, error) {
		return armCrossCore(k, 0)
	},
	strike: func(ram *mem.Phys, w window, rng *boot.PRNG) {
		transplant(ram, w, rng)
		ram.Write64(kernel.UVAToPA(2, kernel.UserDataBase), sentinel)
	},
	// A dispatch in flight on core 1 when the strike landed may consume
	// the sentinel with the old ops (real SMP timing), so "transplanted
	// pointer still installed under a live victim" counts as the silent
	// swap too.
	judge: func(k *kernel.Kernel, w window, _ uint64) (Outcome, string) {
		ram := k.CPU.Bus.RAM
		planted := ram.Read64(kernel.KVAToPA(w.fileVA2)+kernel.FileOps) ==
			ram.Read64(kernel.KVAToPA(w.fileVA)+kernel.FileOps)
		return crossCoreVerdict(k, planted || ram.Read64(kernel.UVAToPA(2, kernel.UserDataBase)) == sentinel)
	},
	sealed: pacFailed,
}

// pacFailed seals crossCoreVerdict's verdict: it checks PAC failures
// first, and they never decrease, so once one is counted the strike is
// detected whatever the rest of the budget does.
func pacFailed(k *kernel.Kernel, _ window, _ uint64) bool {
	return k.PACFailures > 0
}

// BruteReport is the result of the §5.4 brute-force experiment.
type BruteReport struct {
	Level     string
	Threshold int
	Attempts  int
	Halted    bool
	// Succeeded is true if a guessed PAC authenticated (probability
	// ~2^-15 per attempt; essentially never within the threshold).
	Succeeded bool
}

// BruteForcePAC models the §5.4 attacker: an unprivileged process guesses
// PAC bits for a forged f_ops pointer; every miss costs it the process,
// and the kernel halts at the failure threshold. The machine has the
// given vCPU count.
func BruteForcePAC(lv Level, cpus, threshold int) (BruteReport, error) {
	opts := lv.options(31, threshold, cpus)
	snap, err := snapshot.Shared.SnapshotFor(snapshot.KeyFor(opts), snapshot.BootOptions(opts))
	if err != nil {
		return BruteReport{}, err
	}
	k, err := snap.Fork()
	if err != nil {
		return BruteReport{}, err
	}
	prog, err := kernel.BuildProgram("bruteforcer", spinReadProgram(kernel.PathDevZero))
	if err != nil {
		return BruteReport{}, err
	}
	k.RegisterProgram(1, prog)

	rep := BruteReport{Level: lv.Name, Threshold: threshold}
	forgedTarget := k.AllocScratch(kernel.OpsSize)
	ram := k.CPU.Bus.RAM
	ram.Write64(kernel.KVAToPA(forgedTarget)+kernel.OpsRead, k.Img.Symbols["work_handler"])

	mask, _ := k.CPU.Signer.Config().PACField(true)
	before := gadgetCounter(k)
	for rep.Attempts = 0; rep.Attempts < threshold+8 && !k.Halted; rep.Attempts++ {
		if _, err := k.Spawn(1); err != nil {
			return rep, err
		}
		k.Run(400_000)
		fileVA := k.FileAddrByFD(0)
		if fileVA == 0 {
			return rep, fmt.Errorf("bruteforce: fd not open")
		}
		// Guess: forged pointer with attempt-indexed PAC bits.
		guess := (forgedTarget &^ mask) | (uint64(rep.Attempts*0x9E37+1) << 48 & mask)
		ram.Write64(kernel.KVAToPA(fileVA)+kernel.FileOps, guess)
		k.CPU.InvalidateDecode()
		k.Run(3_000_000)
		if gadgetCounter(k) > before {
			rep.Succeeded = true
			return rep, nil
		}
	}
	rep.Halted = k.Halted
	return rep, nil
}

// Matrix runs every uniprocessor attack against every configuration on
// machines with the given vCPU count (the victims stay pinned to the
// boot core): the §6.2 security-evaluation table, one unmutated strike
// of each scenario per level. Each row runs on its own forked machine —
// concurrently when parallel is set — and rows are assembled in
// (level, scenario) order. Once ctx is done no further row starts.
func Matrix(ctx context.Context, cpus int, parallel bool) ([]Report, error) {
	levels, scs := Levels(), baseScenarios()
	out := make([]Report, len(levels)*len(scs))
	err := snapshot.ForEach(ctx, len(out), parallel, func(i int) error {
		lv, sc := levels[i/len(scs)], scs[i%len(scs)]
		var err error
		out[i], err = sc.report(lv, cpus)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- replay-surface census (E10) ---

// CensusResult counts modifier collisions across contexts for one
// return-address scheme.
type CensusResult struct {
	Scheme pac.ModifierScheme
	// Contexts is the number of (thread, depth, function) sign contexts.
	Contexts int
	// CollidingPairs counts distinct context pairs with equal modifiers —
	// each is a replay opportunity.
	CollidingPairs int
}

// ReplayCensus enumerates kernel sign contexts — threads with 16 KiB-
// strided stacks (§4.2), call depths, and return sites — and counts
// modifier collisions per scheme. It quantifies §4.2 and §7: the SP-only
// modifier collides across functions at equal depth and across threads;
// PARTS collides across stacks 64 KiB apart; Camouflage collides only
// when thread stacks alias at 4 GiB spacing, which the census never
// reaches.
func ReplayCensus(scheme pac.ModifierScheme, threads, depths, funcs int) CensusResult {
	type ctx struct{ modifier uint64 }
	var ctxs []ctx
	for th := 0; th < threads; th++ {
		stackTop := kernel.StackBase + uint64(th+1)*kernel.StackSize
		for d := 0; d < depths; d++ {
			sp := stackTop - uint64(d+1)*32
			for f := 0; f < funcs; f++ {
				fnAddr := kernel.TextBase + uint64(f)*0x80
				var m uint64
				switch scheme {
				case pac.ModifierClangSP:
					m = pac.ReturnModifierClangSP(sp)
				case pac.ModifierPARTS:
					m = pac.ReturnModifierPARTS(sp, uint64(f+1))
				case pac.ModifierCamouflage:
					m = pac.ReturnModifierCamouflage(sp, fnAddr)
				default:
					m = 0 // unprotected: everything collides
				}
				ctxs = append(ctxs, ctx{m})
			}
		}
	}
	seen := map[uint64]int{}
	pairs := 0
	for _, c := range ctxs {
		pairs += seen[c.modifier]
		seen[c.modifier]++
	}
	return CensusResult{Scheme: scheme, Contexts: len(ctxs), CollidingPairs: pairs}
}
