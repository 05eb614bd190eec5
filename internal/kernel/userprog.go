package kernel

import (
	"fmt"

	"camouflage/internal/asm"
	"camouflage/internal/cpu"
	"camouflage/internal/insn"
)

// Program is an assembled user-space (EL0) program.
type Program struct {
	Name    string
	image   *asm.Image
	entryVA uint64
}

// UserASM is the builder handed to user-program constructors. It wraps the
// assembler with syscall conveniences; benchmarks use the raw assembler
// for loops.
type UserASM struct {
	// A is the underlying assembler, positioned in ".utext".
	A *asm.Assembler
}

// MovImm loads a 64-bit immediate.
func (u *UserASM) MovImm(rd insn.Reg, v uint64) {
	u.A.I(insn.MOVImm64(rd, v)...)
}

// Syscall issues a syscall with up to four immediate arguments.
func (u *UserASM) Syscall(nr uint16, args ...uint64) {
	for i, v := range args {
		u.MovImm(insn.Reg(i), v)
	}
	u.A.I(insn.MOVZ(insn.X8, nr, 0))
	u.A.I(insn.SVC(0))
}

// SyscallReg issues a syscall with arguments already in x0..; only x8 is
// loaded.
func (u *UserASM) SyscallReg(nr uint16) {
	u.A.I(insn.MOVZ(insn.X8, nr, 0))
	u.A.I(insn.SVC(0))
}

// Exit terminates the process.
func (u *UserASM) Exit(status uint64) {
	u.Syscall(SysExit, status)
}

// CounterLoop emits a countdown loop: body runs `count` times using rc as
// the counter (rc must not be clobbered by the body).
func (u *UserASM) CounterLoop(label string, rc insn.Reg, count uint64, body func()) {
	u.MovImm(rc, count)
	u.A.Label(label)
	body()
	u.A.I(insn.SUBi(rc, rc, 1))
	u.A.CBNZ(rc, label)
}

// BuildProgram assembles a user program. The build callback emits code
// after the "_start" label; it must end the program itself (normally via
// Exit).
func BuildProgram(name string, build func(u *UserASM)) (*Program, error) {
	a := asm.New()
	a.Section(".utext")
	a.Label("_start")
	u := &UserASM{A: a}
	build(u)
	img, err := a.Link(map[string]uint64{".text": 0xFFFF_FFFF_0000, ".utext": UserTextBase})
	if err != nil {
		return nil, fmt.Errorf("userprog %s: %w", name, err)
	}
	return &Program{Name: name, image: img, entryVA: img.Symbols["_start"]}, nil
}

// ExecTargetProgID is the program id under which RunProgram registers a
// run's exec target: the id its pid 1 passes to execve.
const ExecTargetProgID = 9

// RunProgram is the evaluation's cell runner. It builds a user program
// and registers it as pid 1, plus target (when non-nil) under
// ExecTargetProgID, spawns pid 1 on the boot core and runs up to budget
// instructions. The run must end in a halt; RunProgram returns the
// cycles it consumed.
func (k *Kernel) RunProgram(name string, build, target func(u *UserASM), budget uint64) (uint64, error) {
	prog, err := BuildProgram(name, build)
	if err != nil {
		return 0, err
	}
	k.RegisterProgram(1, prog)
	if target != nil {
		tgt, err := BuildProgram(name+"/exec-target", target)
		if err != nil {
			return 0, err
		}
		k.RegisterProgram(ExecTargetProgID, tgt)
	}
	if _, err := k.Spawn(1); err != nil {
		return 0, err
	}
	start := k.CPU.Cycles
	if stop := k.Run(budget); stop.Kind != cpu.StopHLT {
		return 0, fmt.Errorf("kernel: program %q did not halt: %+v", name, stop)
	}
	return k.CPU.Cycles - start, nil
}
