// Package pac models ARMv8.3-A pointer authentication (PAuth) over the
// VMSAv8 virtual address layout described in Appendix A of the Camouflage
// paper (Tables 1 and 2).
//
// A 64-bit AArch64 pointer does not use all of its bits for addressing: with
// the usual 48-bit virtual address space, bits 47..0 address memory, bit 55
// selects the translation table (TTBR0 for user, TTBR1 for kernel) and the
// remaining bits are sign extension (or an ignored tag byte when top-byte
// ignore is enabled). PAuth replaces those unused bits with a truncated
// keyed MAC — the pointer authentication code (PAC) — computed by QARMA
// from the pointer and a 64-bit modifier.
//
// This package computes PAC field geometry for a configurable layout,
// signs, authenticates and strips pointers, and models the
// authentication-failure "poisoning" that makes a corrupted pointer fault
// when dereferenced.
package pac

import (
	"fmt"
	"math/bits"

	"camouflage/internal/qarma"
)

// KeyID names one of the five PAuth keys of ARMv8.3-A (Appendix B.1).
type KeyID int

const (
	// KeyIA and KeyIB sign instruction pointers (return addresses and
	// function pointers).
	KeyIA KeyID = iota
	KeyIB
	// KeyDA and KeyDB sign data pointers.
	KeyDA
	KeyDB
	// KeyGA signs generic 64-bit data, unconstrained by address layout.
	KeyGA

	// NumKeys is the number of simultaneously active PAuth keys per core.
	NumKeys = 5
)

// String returns the ARM name of the key.
func (k KeyID) String() string {
	switch k {
	case KeyIA:
		return "IA"
	case KeyIB:
		return "IB"
	case KeyDA:
		return "DA"
	case KeyDB:
		return "DB"
	case KeyGA:
		return "GA"
	}
	return fmt.Sprintf("KeyID(%d)", int(k))
}

// IsInstruction reports whether k is one of the two instruction keys.
func (k KeyID) IsInstruction() bool { return k == KeyIA || k == KeyIB }

// IsData reports whether k is one of the two data keys.
func (k KeyID) IsData() bool { return k == KeyDA || k == KeyDB }

// Config describes the virtual-memory layout parameters that determine
// where the PAC lives inside a pointer.
type Config struct {
	// VABits is the virtual address space size in bits (48 in the typical
	// configuration of Table 1; up to 52 with ARMv8.2-LVA).
	VABits int
	// TBIUser enables top-byte ignore for user (TTBR0) addresses. Linux
	// enables this, so user PACs lose bits 63..56.
	TBIUser bool
	// TBIKernel enables top-byte ignore for kernel (TTBR1) addresses.
	// Linux leaves this disabled except under KASAN.
	TBIKernel bool
}

// DefaultConfig is the typical Linux/Ubuntu AArch64 run-time configuration
// of the paper: 48-bit VA, 4 KiB pages, TBI for user space only. Under this
// configuration a kernel pointer carries a 15-bit PAC (§5.4).
var DefaultConfig = Config{VABits: 48, TBIUser: true, TBIKernel: false}

// selectBit is the bit that selects between TTBR0 (0, user) and
// TTBR1 (1, kernel) per Table 1.
const selectBit = 55

// KernelBase is the lowest kernel virtual address of Table 1 for a 48-bit
// VA configuration.
const KernelBase = 0xFFFF_0000_0000_0000

// UserTop is the highest user virtual address of Table 1 for a 48-bit VA
// configuration.
const UserTop = 0x0000_FFFF_FFFF_FFFF

// Validate reports whether the configuration is one the model supports.
func (c Config) Validate() error {
	if c.VABits < 36 || c.VABits > 52 {
		return fmt.Errorf("pac: VABits %d outside supported range [36, 52]", c.VABits)
	}
	return nil
}

// IsKernel reports whether addr selects the kernel translation table
// (bit 55 set — Table 1).
func (c Config) IsKernel(addr uint64) bool {
	return addr&(1<<selectBit) != 0
}

// PACField returns the mask of pointer bits that hold the PAC for a pointer
// on the given side of the address space, and the PAC size in bits. Bit 55
// is never part of the PAC (it must keep selecting the translation table),
// and tag bits 63..56 are excluded when TBI is enabled for that side.
func (c Config) PACField(kernel bool) (mask uint64, size int) {
	tbi := c.TBIUser
	if kernel {
		tbi = c.TBIKernel
	}
	top := 63
	if tbi {
		top = 55
	}
	for bit := c.VABits; bit <= top; bit++ {
		if bit == selectBit {
			continue
		}
		mask |= 1 << bit
	}
	return mask, popcount(mask)
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Canonical returns ptr with its PAC field replaced by the canonical
// extension bits for its side of the address space: all-ones above bit 54
// for kernel pointers, all-zeros for user pointers (Table 2), leaving tag
// bits alone when TBI applies.
func (c Config) Canonical(ptr uint64) uint64 {
	kernel := c.IsKernel(ptr)
	mask, _ := c.PACField(kernel)
	if kernel {
		return ptr | mask
	}
	return ptr &^ mask
}

// IsCanonical reports whether the pointer's extension bits match its bit-55
// selector, i.e. the pointer carries no PAC and no corruption.
func (c Config) IsCanonical(ptr uint64) bool {
	return ptr == c.Canonical(ptr)
}

// Key is one 128-bit PAuth key as held by a register pair
// (APxKeyHi_EL1:APxKeyLo_EL1).
type Key struct {
	Hi uint64
	Lo uint64
}

// IsZero reports whether the key is all-zero (never provisioned).
func (k Key) IsZero() bool { return k.Hi == 0 && k.Lo == 0 }

// KeySet is a full bank of five PAuth keys.
type KeySet struct {
	Keys [NumKeys]Key
}

// field is the PAC geometry of one side of the address space, derived once
// per Config so that signing and authenticating never rebuild it.
type field struct {
	mask uint64 // PAC bits (Config.PACField)
	ext  uint64 // the field's canonical content: mask for kernel, 0 for user
	// poison holds the bit Auth flips on failure for instruction keys
	// ([0]) and for the other keys ([1]); see poisonBit.
	poison [2]uint64
	// runs scatter the low MAC bits into the field, lowest first: the PAC
	// is the union of (mac << shift) & mask over both runs. Bit 55 splits
	// the field into at most two contiguous runs, below and above it.
	runs [2]struct {
		shift uint
		mask  uint64
	}
}

func newField(c Config, kernel bool) field {
	mask, _ := c.PACField(kernel)
	f := field{mask: mask}
	if kernel {
		f.ext = mask
	}
	f.poison = [2]uint64{poisonBit(mask, KeyIA), poisonBit(mask, KeyDA)}
	lo := mask & (1<<selectBit - 1)
	f.runs[0].shift, f.runs[0].mask = uint(bits.TrailingZeros64(lo)), lo
	f.runs[1].shift, f.runs[1].mask = selectBit+1-uint(bits.OnesCount64(lo)), mask&^lo
	return f
}

// canonical is Config.Canonical over a precomputed field.
func (f *field) canonical(ptr uint64) uint64 { return ptr&^f.mask | f.ext }

// memoBits sizes the MAC memo: 1<<memoBits direct-mapped entries.
const (
	memoBits = 6
	memoSize = 1 << memoBits
)

// Signer computes and checks PACs under a fixed layout configuration. It
// holds one QARMA cipher per key slot by value, so installing a key never
// allocates, and a memo of recent MACs, so a MAC the signer computed
// shortly before costs a table probe instead of a cipher run. The memo is
// host state only: no snapshot or store format holds it, so the Signer of
// a forked or loaded machine starts with it empty. A reset keeps it,
// which is sound because every entry names the key value it was computed
// under.
type Signer struct {
	cfg    Config
	sides  [2]field // indexed by bit 55: user, kernel
	cipher [NumKeys]qarma.Cipher
	keys   [NumKeys]Key
	memo   [memoSize]memoEntry

	// Signs, Auths and Fails count Sign calls, Auth calls and
	// authentication failures per key (GenericMAC counts under KeyGA);
	// QARMARuns counts cipher runs: memo misses plus every GenericMAC.
	// Plain fields by design: a Signer is owned by one CPU, which is run
	// by one goroutine at a time, so increments are unsynchronized and
	// free; the owning CPU drains them into the obs registry when its
	// Run returns.
	Signs     [NumKeys]uint64
	Auths     [NumKeys]uint64
	Fails     [NumKeys]uint64
	QARMARuns uint64
}

// memoEntry is one memo slot: the QARMA output mac of plaintext ptr
// under tweak mod and key. The tag is the key's value, not its slot:
// key_setter rewrites the IB, IA and DB slots on every syscall entry and
// exit, and a value tag keeps the kernel keys' entries alive across the
// round trip through the user keys. valid marks a filled slot; without
// it a zeroed slot would claim that the all-zero key maps (0, 0) to 0.
type memoEntry struct {
	key      Key
	ptr, mod uint64
	mac      uint64
	valid    bool
}

// memoIndex picks the memo slot of (ptr, mod). The modifier is rotated
// so that its halves (the SP and function-address halves of a return
// modifier) fold onto different pointer bits, a shift folds the high half
// down, and the multiply makes the top memoBits bits depend on every bit.
// The key is left out: a (pointer, modifier) pair is almost always signed
// under one key value.
func memoIndex(ptr, mod uint64) uint64 {
	x := ptr ^ bits.RotateLeft64(mod, 17)
	return (x ^ x>>29) * 0xBF58476D1CE4E5B9 >> (64 - memoBits)
}

// NewSigner returns a Signer for the given layout using QARMA-64 with the
// default PAC round count. Every slot starts on the all-zero key: ARM
// behaviour with an unprovisioned key is still a MAC.
func NewSigner(cfg Config) *Signer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Signer{cfg: cfg, sides: [2]field{newField(cfg, false), newField(cfg, true)}}
	for i := range s.cipher {
		s.cipher[i] = *qarma.New(qarma.Key{}, qarma.DefaultRounds)
	}
	return s
}

// Config returns the layout configuration of the signer.
func (s *Signer) Config() Config { return s.cfg }

// side returns the field geometry for ptr's side of the address space.
func (s *Signer) side(ptr uint64) *field { return &s.sides[ptr>>selectBit&1] }

// SetKey installs the 128-bit key for the given slot, re-keying its cipher
// in place. The memo keeps its entries: each is tagged with the key value
// it was computed under, so none can answer for the new key, and the old
// key's entries hit again once key_setter installs it back.
func (s *Signer) SetKey(id KeyID, k Key) {
	s.keys[id] = k
	s.cipher[id] = *qarma.New(qarma.Key{W0: k.Hi, K0: k.Lo}, qarma.DefaultRounds)
}

// Key returns the currently installed key for the slot.
func (s *Signer) Key(id KeyID) Key { return s.keys[id] }

// SetKeys installs a full bank of keys.
func (s *Signer) SetKeys(ks KeySet) {
	for i := range ks.Keys {
		s.SetKey(KeyID(i), ks.Keys[i])
	}
}

// Keys returns the currently installed key bank (snapshot capture).
func (s *Signer) Keys() KeySet {
	return KeySet{Keys: s.keys}
}

// pacFor computes the PAC bits for the canonical pointer canon under
// modifier, positioned within f's PAC field. The MAC input is the canonical
// form of the pointer so that signing is independent of any stale PAC bits.
// The MAC comes from the memo when the slot holds this exact (key value,
// pointer, modifier); otherwise the slot's cipher computes it and the
// memo slot is refilled.
//
//camo:hotpath
func (s *Signer) pacFor(f *field, canon, modifier uint64, id KeyID) uint64 {
	k := s.keys[id]
	e := &s.memo[memoIndex(canon, modifier)]
	if !e.valid || e.ptr != canon || e.mod != modifier || e.key != k {
		*e = memoEntry{key: k, ptr: canon, mod: modifier, mac: s.cipher[id].Encrypt(canon, modifier), valid: true}
		s.QARMARuns++
	}
	mac := e.mac
	return mac<<f.runs[0].shift&f.runs[0].mask | mac<<f.runs[1].shift&f.runs[1].mask
}

// Sign returns ptr with its PAC field replaced by the PAC computed under
// the key and modifier (the PAC* instructions).
//
//camo:hotpath
func (s *Signer) Sign(ptr, modifier uint64, id KeyID) uint64 {
	f := s.side(ptr)
	s.Signs[id]++
	return ptr&^f.mask | s.pacFor(f, f.canonical(ptr), modifier, id)
}

// poisonBit returns the extension bit flipped on authentication failure so
// the resulting address is non-canonical and faults when dereferenced.
// ARMv8.3 writes a key-class-dependent error code into the top bits of the
// PAC field itself (bits 62:61 without TBI, bits 54:53 with TBI) — placing
// it inside the *checked* field is essential: with top-byte ignore the tag
// bits are never validated, so poisoning them would not fault. We model the
// top PAC-field bit for instruction keys and the next one down for data
// keys.
func poisonBit(mask uint64, id KeyID) uint64 {
	top := uint64(1) << 63
	for ; top != 0 && top&mask == 0; top >>= 1 {
	}
	if id.IsInstruction() || top == 1 {
		return top
	}
	second := top >> 1
	for ; second != 0 && second&mask == 0; second >>= 1 {
	}
	if second == 0 {
		return top
	}
	return second
}

// Auth authenticates a signed pointer (the AUT* instructions). On success
// it returns the canonical pointer and ok = true. On failure it returns a
// poisoned, guaranteed-non-canonical pointer and ok = false; dereferencing
// or branching to that pointer raises a translation fault in the MMU model.
//
//camo:hotpath
func (s *Signer) Auth(signed, modifier uint64, id KeyID) (ptr uint64, ok bool) {
	f := s.side(signed)
	canonical := f.canonical(signed)
	s.Auths[id]++
	if signed&f.mask == s.pacFor(f, canonical, modifier, id) {
		return canonical, true
	}
	s.Fails[id]++
	// Poison: canonicalise, then flip a checked extension bit so the
	// pointer is invalid regardless of address-space side.
	if id.IsInstruction() {
		return canonical ^ f.poison[0], false
	}
	return canonical ^ f.poison[1], false
}

// Strip removes the PAC, restoring the canonical pointer without any
// authentication (the XPAC* instructions; debugging only).
func (s *Signer) Strip(ptr uint64) uint64 {
	return s.side(ptr).canonical(ptr)
}

// GenericMAC computes the 32-bit PACGA-style MAC over value with the given
// modifier; the result is placed in the high 32 bits as the architecture
// does for PACGA's destination register.
func (s *Signer) GenericMAC(value, modifier uint64) uint64 {
	s.Auths[KeyGA]++
	s.QARMARuns++
	return uint64(s.cipher[KeyGA].MAC(value, modifier)) << 32
}

// IsPoisoned reports whether ptr carries the authentication-failure marker
// of either key class (and is therefore guaranteed non-canonical).
func (s *Signer) IsPoisoned(ptr uint64) bool {
	f := s.side(ptr)
	// A poison bit lies inside the field, so flipping it back from a
	// poisoned pointer leaves exactly the canonical pointer.
	c := f.canonical(ptr)
	return ptr == c^f.poison[0] || ptr == c^f.poison[1]
}
