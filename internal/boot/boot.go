// Package boot models the firmware bootloader of the paper's architecture
// (Figure 1): it generates the pseudo-random kernel PAuth keys, synthesises
// the XOM key-setter function whose MOVZ/MOVK immediates carry the key
// material, and hands the kernel a boot-information block (the analogue of
// the flattened device tree through which Linux receives its KASLR seed).
//
// The key design property (§4.1, §5.1): the kernel can *install* its keys
// by calling the setter, but no EL1 code can *read* them — the only copy
// lives inside execute-only instructions, and the setter scrubs every GPR
// it used before returning.
package boot

import (
	"camouflage/internal/asm"
	"camouflage/internal/insn"
	"camouflage/internal/pac"
)

// PRNG is the bootloader's deterministic random generator (an
// xoshiro256**-style generator standing in for the firmware TRNG; the
// paper likewise uses a firmware PRNG seeded before the kernel starts).
type PRNG struct {
	s [4]uint64
}

// NewPRNG seeds the generator with splitmix64, the reference seeding
// procedure for xoshiro.
func NewPRNG(seed uint64) *PRNG {
	p := &PRNG{}
	x := seed
	for i := range p.s {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		p.s[i] = z ^ z>>31
	}
	return p
}

// Clone returns an independent generator at the same stream position, so
// a forked machine draws exactly the randomness a fresh boot would.
func (p *PRNG) Clone() *PRNG {
	cp := *p
	return &cp
}

// State exports the generator's stream position for snapshot
// persistence.
func (p *PRNG) State() [4]uint64 { return p.s }

// NewPRNGFromState rebuilds a generator at an exported stream position,
// so a snapshot loaded from disk draws exactly the randomness the
// captured machine would have drawn.
func NewPRNGFromState(s [4]uint64) *PRNG { return &PRNG{s: s} }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (p *PRNG) Uint64() uint64 {
	result := rotl(p.s[1]*5, 7) * 9
	t := p.s[1] << 17
	p.s[2] ^= p.s[0]
	p.s[3] ^= p.s[1]
	p.s[1] ^= p.s[2]
	p.s[0] ^= p.s[3]
	p.s[2] ^= t
	p.s[3] = rotl(p.s[3], 45)
	return result
}

// GenerateKeys draws a full bank of five 128-bit PAuth keys.
func (p *PRNG) GenerateKeys() pac.KeySet {
	var ks pac.KeySet
	for i := range ks.Keys {
		ks.Keys[i] = pac.Key{Hi: p.Uint64(), Lo: p.Uint64()}
	}
	return ks
}

// KernelKeys lists the three keys the kernel uses (§4.5): IB for
// backward-edge CFI, IA for forward-edge CFI, DB for DFI. (IA/IB roles
// are swapped relative to user space so that the kernel's backward-edge
// key differs from the one Clang-instrumented user binaries consume.)
var KernelKeys = []pac.KeyID{pac.KeyIB, pac.KeyIA, pac.KeyDB}

// KeyRegs maps a key to the (Lo, Hi) system registers an install of it
// writes. Pre-8.3 cores have no key registers, so in ModeV80 both are
// CONTEXTIDR_EL1: the PA-analogue writes it with identical timing (§6.1).
func KeyRegs(id pac.KeyID, mode Compat) (lo, hi insn.SysReg) {
	if mode == ModeV80 {
		return insn.CONTEXTIDR_EL1, insn.CONTEXTIDR_EL1
	}
	switch id {
	case pac.KeyIA:
		return insn.APIAKeyLo_EL1, insn.APIAKeyHi_EL1
	case pac.KeyIB:
		return insn.APIBKeyLo_EL1, insn.APIBKeyHi_EL1
	case pac.KeyDA:
		return insn.APDAKeyLo_EL1, insn.APDAKeyHi_EL1
	case pac.KeyDB:
		return insn.APDBKeyLo_EL1, insn.APDBKeyHi_EL1
	default:
		return insn.APGAKeyLo_EL1, insn.APGAKeyHi_EL1
	}
}

// Compat selects the §5.5 backwards-compatible build: data-key setup is
// skipped (pre-8.3 cores have no D registers and the DFI macros reuse the
// instruction key), and key-register writes are replaced with writes to
// CONTEXTIDR_EL1, the paper's side-effect-free stand-in.
type Compat bool

// Build modes.
const (
	// ModeV83 targets ARMv8.3 hardware with real key installs.
	ModeV83 Compat = false
	// ModeV80 targets pre-8.3 hardware (PA-analogue measurement mode).
	ModeV80 Compat = true
)

// EmitKeySetter emits the XOM key-setter into the assembler's current
// section under the given label. The generated function:
//
//	for each kernel key:
//	    movz/movk x0, #<key lo>   ; immediates carry the secret
//	    msr APxKeyLo_EL1, x0
//	    movz/movk x0, #<key hi>
//	    msr APxKeyHi_EL1, x0
//	x0 := 0                        ; scrub key material from GPRs
//	ret
//
// The caller must run it with interrupts masked and map its page XOM
// (§5.1). In ModeV80 the MSRs target CONTEXTIDR_EL1 instead, preserving
// the exact instruction count and timing of the real sequence. ids selects
// the keys to install; nil means the full kernel set (KernelKeys).
func EmitKeySetter(a *asm.Assembler, label string, keys pac.KeySet, mode Compat, ids ...pac.KeyID) {
	if len(ids) == 0 {
		ids = KernelKeys
	}
	a.Label(label)
	for _, id := range ids {
		if mode == ModeV80 && id.IsData() {
			continue // no D keys on pre-8.3; DFI reuses the I key (§5.5)
		}
		lo, hi := KeyRegs(id, mode)
		k := keys.Keys[id]
		emitImm64(a, insn.X0, k.Lo)
		a.I(insn.MSR(lo, insn.X0))
		emitImm64(a, insn.X0, k.Hi)
		a.I(insn.MSR(hi, insn.X0))
	}
	a.I(insn.MOVZ(insn.X0, 0, 0)) // scrub
	a.I(insn.RET())
}

// emitImm64 pads the MOVZ/MOVK chain to a fixed four instructions so that
// the setter size (and therefore its timing) is key-independent: a chain
// whose length depended on zero halfwords of the key would itself be a
// (small) side channel.
func emitImm64(a *asm.Assembler, rd insn.Reg, v uint64) {
	a.I(insn.MOVZ(rd, uint16(v), 0))
	a.I(insn.MOVK(rd, uint16(v>>16), 16))
	a.I(insn.MOVK(rd, uint16(v>>32), 32))
	a.I(insn.MOVK(rd, uint16(v>>48), 48))
}

// Info is the boot-information block the bootloader writes for the kernel
// (the FDT analogue of §5, footnote 3).
type Info struct {
	// Seed is the randomness handed to the kernel (KASLR-seed analogue).
	Seed uint64
	// KeySetter is the virtual address of the XOM key-setter.
	KeySetter uint64
	// MemBytes is the RAM size presented to the kernel.
	MemBytes uint64
}

// InfoMagic marks a boot info block in memory.
const InfoMagic = 0xCA11_F1A6_E000_0001

// Encode serialises the block as four little-endian quads.
func (bi Info) Encode() []byte {
	out := make([]byte, 32)
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			out[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, InfoMagic)
	put(8, bi.Seed)
	put(16, bi.KeySetter)
	put(24, bi.MemBytes)
	return out
}

// DecodeInfo parses an encoded block, reporting whether the magic matched.
func DecodeInfo(b []byte) (Info, bool) {
	if len(b) < 32 {
		return Info{}, false
	}
	get := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[off+i]) << (8 * i)
		}
		return v
	}
	if get(0) != InfoMagic {
		return Info{}, false
	}
	return Info{Seed: get(8), KeySetter: get(16), MemBytes: get(24)}, true
}
