package attack

import (
	"fmt"

	"camouflage/internal/boot"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/mem"
	"camouflage/internal/pac"
)

// CredSwap is the §4.5 privilege-escalation scenario the paper flags when
// noting that "the same approach for protecting pointers could be used to
// protect other sensitive pointers, such as the f_cred pointer to file
// credentials": the attacker points an open file's f_cred at a forged
// credentials object (uid 0). The next permission check (fstat's
// authenticated f_cred dereference) either reads the forged root
// credentials (hijack) or faults on the unauthenticated pointer.
func CredSwap(lv Level) (Report, error) {
	return credSwapScenario.report(lv, 1)
}

// credVictimProgram opens /dev/zero and loops fstat — the permission
// check the f_cred attack subverts — recording each result for the host.
func credVictimProgram() func(u *kernel.UserASM) {
	return func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.A.Label("spin")
		u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
		u.SyscallReg(kernel.SysFstat)
		u.MovImm(insn.X1, kernel.UserDataBase)
		u.A.I(insn.STR(insn.X0, insn.X1, 0))
		u.A.B("spin")
	}
}

var credSwapScenario = scenario{
	name: "f_cred swap (priv-esc)", seed: 27, budget: 3_000_000,
	arm: func(k *kernel.Kernel) (window, error) {
		w := newWindow(k)
		prog, err := kernel.BuildProgram("credvictim", credVictimProgram())
		if err != nil {
			return w, err
		}
		k.RegisterProgram(1, prog)
		if _, err := k.Spawn(1); err != nil {
			return w, err
		}
		k.Run(500_000)
		if w.fileVA = k.FileAddrByFD(0); w.fileVA == 0 {
			return w, fmt.Errorf("fd not open")
		}
		w.forged = k.AllocScratch(64)
		return w, nil
	},
	// Forge root credentials in writable kernel memory and swap f_cred.
	strike: func(ram *mem.Phys, w window, rng *boot.PRNG) {
		ram.Write64(kernel.KVAToPA(w.forged), 0) // uid 0: root
		ram.Write64(kernel.KVAToPA(w.fileVA)+kernel.FileCred, mutatePointer(rng, w.forged, w.pacMask))
	},
	// Detection is a PAC failure or a kernel fault. Without DFI the swap
	// is silent: the victim keeps running and fstat keeps succeeding
	// against the forged (root) credentials.
	judge: func(k *kernel.Kernel, _ window, _ uint64) (Outcome, string) {
		if k.PACFailures > 0 {
			return OutcomeDetected, "forged credentials rejected"
		}
		if kernelOopsed(k) {
			return OutcomeDetected, "kernel fault without PAC (crash, not hijack)"
		}
		if k.Task(1) != nil {
			fstat := int64(k.CPU.Bus.RAM.Read64(kernel.UVAToPA(1, kernel.UserDataBase)))
			return OutcomeHijacked, fmt.Sprintf("permission checks now consult forged root creds (fstat=%d)", fstat)
		}
		return OutcomeInconclusive, ""
	},
}

// OracleReport is the §6.2.3 verification-oracle check.
type OracleReport struct {
	// UserAuthSucceeded would mean user space can verify kernel PACs.
	UserAuthSucceeded bool
	// KernelAuthSucceeded is the control: the kernel key does verify.
	KernelAuthSucceeded bool
}

// VerificationOracle demonstrates §6.2.3: "The user space process uses a
// randomly assigned key, and thus cannot verify kernel pointers." It
// extracts a kernel-signed f_ops value from memory and attempts to
// authenticate it under the victim task's user keys.
func VerificationOracle(lv Level, seed uint64) (OracleReport, error) {
	k, err := bootWith(lv, 1, seed)
	if err != nil {
		return OracleReport{}, err
	}
	prog, err := kernel.BuildProgram("orcl", func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
		u.A.Label("spin")
		u.SyscallReg(kernel.SysSchedYield)
		u.A.B("spin")
	})
	if err != nil {
		return OracleReport{}, err
	}
	k.RegisterProgram(1, prog)
	task, err := k.Spawn(1)
	if err != nil {
		return OracleReport{}, err
	}
	k.Run(500_000)
	fileVA := k.FileAddrByFD(0)
	if fileVA == 0 {
		return OracleReport{}, fmt.Errorf("oracle: fd not open")
	}
	signed := k.CPU.Bus.RAM.Read64(kernel.KVAToPA(fileVA) + kernel.FileOps)
	mod := pac.ObjectModifier(fileVA, pac.TypeConst("file", "f_ops"))

	// User-side attempt: a signer loaded with the task's own keys (which
	// is what the DB key registers hold whenever the task runs at EL0).
	userSigner := pac.NewSigner(pac.DefaultConfig)
	userSigner.SetKeys(task.Keys)
	_, userOK := userSigner.Auth(signed, mod, pac.KeyDB)

	// Control: the kernel key bank verifies the same value.
	kernelSigner := pac.NewSigner(pac.DefaultConfig)
	kernelSigner.SetKeys(k.KernelKeysForTest())
	_, kernelOK := kernelSigner.Auth(signed, mod, pac.KeyDB)

	return OracleReport{UserAuthSucceeded: userOK, KernelAuthSucceeded: kernelOK}, nil
}
