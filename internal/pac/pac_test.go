package pac

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camouflage/internal/qarma"
)

func testSigner() *Signer { return testSignerFor(DefaultConfig) }

func testSignerFor(cfg Config) *Signer {
	s := NewSigner(cfg)
	s.SetKey(KeyIA, Key{Hi: 0x1111, Lo: 0xAAAA})
	s.SetKey(KeyIB, Key{Hi: 0x2222, Lo: 0xBBBB})
	s.SetKey(KeyDA, Key{Hi: 0x3333, Lo: 0xCCCC})
	s.SetKey(KeyDB, Key{Hi: 0x4444, Lo: 0xDDDD})
	s.SetKey(KeyGA, Key{Hi: 0x5555, Lo: 0xEEEE})
	return s
}

// TestPACFieldTable2 pins the PAC geometry of Table 2 / §5.4: with a 48-bit
// VA, a kernel pointer (TBI off) has a 15-bit PAC in bits 63..56 and 54..48;
// a user pointer with TBI on has a 7-bit PAC in bits 54..48.
func TestPACFieldTable2(t *testing.T) {
	mask, size := DefaultConfig.PACField(true)
	if size != 15 {
		t.Errorf("kernel PAC size = %d bits, want 15 (§5.4)", size)
	}
	if want := uint64(0xFF7F_0000_0000_0000); mask != want {
		t.Errorf("kernel PAC mask = %#016x, want %#016x", mask, want)
	}
	mask, size = DefaultConfig.PACField(false)
	if size != 7 {
		t.Errorf("user PAC size = %d bits, want 7 (TBI)", size)
	}
	if want := uint64(0x007F_0000_0000_0000); mask != want {
		t.Errorf("user PAC mask = %#016x, want %#016x", mask, want)
	}
}

// TestPACSizeSweep exercises PAC geometry across VA sizes (Appendix A: up
// to 52 bits with ARMv8.2-LVA).
func TestPACSizeSweep(t *testing.T) {
	cases := []struct {
		vaBits      int
		tbi         bool
		wantPACBits int
	}{
		{48, false, 15}, // default kernel
		{48, true, 7},   // default user
		{39, false, 24}, // 39-bit VA kernel
		{39, true, 16},
		{52, false, 11},
		{42, false, 21},
	}
	for _, c := range cases {
		cfg := Config{VABits: c.vaBits, TBIUser: c.tbi, TBIKernel: c.tbi}
		_, size := cfg.PACField(false)
		if size != c.wantPACBits {
			t.Errorf("VABits=%d TBI=%v: PAC size = %d, want %d", c.vaBits, c.tbi, size, c.wantPACBits)
		}
	}
}

// TestVMSAv8AddressRanges reproduces Table 1: bit 55 selects the
// translation table; the canonical kernel and user ranges are recognised
// and the hole between them is neither.
func TestVMSAv8AddressRanges(t *testing.T) {
	cfg := DefaultConfig
	kernelAddrs := []uint64{0xFFFF_FFFF_FFFF_FFFF, KernelBase, 0xFFFF_0000_1234_5678}
	for _, a := range kernelAddrs {
		if !cfg.IsKernel(a) {
			t.Errorf("IsKernel(%#x) = false, want true", a)
		}
		if !cfg.IsCanonical(a) {
			t.Errorf("IsCanonical(%#x) = false, want true", a)
		}
	}
	userAddrs := []uint64{0, 0x0000_7FFF_FFFF_F000, UserTop & ^uint64(0x00FF_0000_0000_0000)}
	for _, a := range userAddrs {
		if cfg.IsKernel(a) {
			t.Errorf("IsKernel(%#x) = true, want false", a)
		}
	}
	// Addresses in the Table 1 invalid hole are non-canonical.
	invalid := []uint64{0x0001_0000_0000_0000, 0xFFFE_FFFF_FFFF_FFFF, 0x0040_0000_0000_0000}
	for _, a := range invalid {
		if cfg.IsCanonical(a) {
			t.Errorf("IsCanonical(%#x) = true, want false (Table 1 hole)", a)
		}
	}
	// With TBI, a tagged user pointer is canonical (tag ignored).
	tagged := uint64(0xAB00_7FFF_0000_1234)
	if !cfg.IsCanonical(tagged) {
		t.Errorf("tagged user pointer %#x should be canonical under TBI", tagged)
	}
}

func TestSignAuthRoundTrip(t *testing.T) {
	s := testSigner()
	f := func(off uint32, mod uint64) bool {
		ptr := KernelBase | uint64(off)
		signed := s.Sign(ptr, mod, KeyIB)
		got, ok := s.Auth(signed, mod, KeyIB)
		return ok && got == ptr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSignAuthUserPointer(t *testing.T) {
	s := testSigner()
	ptr := uint64(0x0000_7FFF_1234_5000)
	signed := s.Sign(ptr, 7, KeyIA)
	got, ok := s.Auth(signed, 7, KeyIA)
	if !ok || got != ptr {
		t.Fatalf("Auth = (%#x, %v), want (%#x, true)", got, ok, ptr)
	}
}

func TestAuthWrongModifierFails(t *testing.T) {
	s := testSigner()
	ptr := uint64(KernelBase) | 0x1234_5678
	signed := s.Sign(ptr, 100, KeyIB)
	got, ok := s.Auth(signed, 101, KeyIB)
	if ok {
		t.Fatal("Auth succeeded with wrong modifier")
	}
	if s.cfg.IsCanonical(got) {
		t.Fatalf("poisoned pointer %#x is canonical; it must fault on use", got)
	}
	if !s.IsPoisoned(got) {
		t.Fatalf("IsPoisoned(%#x) = false", got)
	}
}

func TestAuthWrongKeyFails(t *testing.T) {
	s := testSigner()
	ptr := uint64(KernelBase) | 0xBEEF000
	signed := s.Sign(ptr, 5, KeyIA)
	if _, ok := s.Auth(signed, 5, KeyIB); ok {
		t.Fatal("Auth succeeded under the wrong key")
	}
}

func TestAuthCorruptedPointerFails(t *testing.T) {
	s := testSigner()
	ptr := uint64(KernelBase) | 0xCAFE000
	signed := s.Sign(ptr, 5, KeyDB)
	// Attacker overwrites the address bits but keeps the PAC.
	mask, _ := s.cfg.PACField(true)
	forged := (signed & mask) | s.cfg.Canonical(KernelBase|0xD00D000)&^mask
	if _, ok := s.Auth(forged, 5, KeyDB); ok {
		t.Fatal("Auth accepted a pointer with transplanted PAC")
	}
}

// TestAuthInjectedUnsignedPointer models the paper's §6.2.1: injecting an
// arbitrary unsigned (canonical) pointer fails authentication except with
// probability 2^-pac_size.
func TestAuthInjectedUnsignedPointer(t *testing.T) {
	s := testSigner()
	misses := 0
	const n = 2000
	for i := 0; i < n; i++ {
		ptr := KernelBase | uint64(i)<<12
		if _, ok := s.Auth(ptr, 99, KeyIB); ok {
			misses++
		}
	}
	// Expected acceptance rate 2^-15; with n=2000 even 3 passes would be
	// an extraordinary fluke.
	if misses > 2 {
		t.Fatalf("%d/%d unsigned pointers authenticated; expected ~n*2^-15", misses, n)
	}
}

func TestStrip(t *testing.T) {
	s := testSigner()
	ptr := uint64(KernelBase) | 0xABC000
	signed := s.Sign(ptr, 3, KeyIB)
	if got := s.Strip(signed); got != ptr {
		t.Fatalf("Strip = %#x, want %#x", got, ptr)
	}
	u := uint64(0x0000_7FFF_0000_1000)
	su := s.Sign(u, 3, KeyDA)
	if got := s.Strip(su); got != u {
		t.Fatalf("Strip user = %#x, want %#x", got, u)
	}
}

func TestPACDependsOnKeyAndModifierAndAddress(t *testing.T) {
	s := testSigner()
	ptr := uint64(KernelBase) | 0x40_0000
	base := s.Sign(ptr, 1, KeyIB)
	if s.Sign(ptr, 2, KeyIB) == base {
		t.Error("PAC identical under different modifiers")
	}
	if s.Sign(ptr, 1, KeyIA) == base {
		t.Error("PAC identical under different keys")
	}
	if s.Sign(ptr|0x1000, 1, KeyIB)&^0xFFFF == base&^0xFFFF && s.Sign(ptr|0x1000, 1, KeyIB)&0xFF7F_0000_0000_0000 == base&0xFF7F_0000_0000_0000 {
		t.Error("PAC identical under different addresses")
	}
}

func TestGenericMAC(t *testing.T) {
	s := testSigner()
	m := s.GenericMAC(0x1234, 0x5678)
	if m&0xFFFF_FFFF != 0 {
		t.Errorf("GenericMAC low 32 bits = %#x, want 0 (PACGA result is in the high half)", m&0xFFFF_FFFF)
	}
	if m == 0 {
		t.Error("GenericMAC = 0; MAC should be non-trivial for a non-zero key")
	}
	if s.GenericMAC(0x1234, 0x5679) == m {
		t.Error("GenericMAC identical under different modifiers")
	}
}

func TestSignerZeroKeyStillWorks(t *testing.T) {
	s := NewSigner(DefaultConfig) // no keys installed
	ptr := uint64(KernelBase) | 0x9000
	signed := s.Sign(ptr, 1, KeyIB)
	if got, ok := s.Auth(signed, 1, KeyIB); !ok || got != ptr {
		t.Fatalf("zero-key Auth = (%#x, %v), want (%#x, true)", got, ok, ptr)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{VABits: 48}).Validate(); err != nil {
		t.Errorf("48-bit VA rejected: %v", err)
	}
	if err := (Config{VABits: 20}).Validate(); err == nil {
		t.Error("20-bit VA accepted")
	}
	if err := (Config{VABits: 64}).Validate(); err == nil {
		t.Error("64-bit VA accepted")
	}
}

func TestKeyIDString(t *testing.T) {
	want := map[KeyID]string{KeyIA: "IA", KeyIB: "IB", KeyDA: "DA", KeyDB: "DB", KeyGA: "GA"}
	for id, w := range want {
		if id.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(id), id.String(), w)
		}
	}
	if KeyIA.IsData() || !KeyIA.IsInstruction() || !KeyDB.IsData() || KeyDB.IsInstruction() {
		t.Error("key class predicates wrong")
	}
}

// --- modifier constructions ---

func TestReturnModifierCamouflage(t *testing.T) {
	// Listing 3: modifier = SP[31:0] << 32 | funcAddr[31:0].
	sp := uint64(0xFFFF_0000_DEAD_B000)
	fn := uint64(0xFFFF_0000_1234_5678)
	got := ReturnModifierCamouflage(sp, fn)
	if want := uint64(0xDEAD_B000_1234_5678); got != want {
		t.Fatalf("ReturnModifierCamouflage = %#x, want %#x", got, want)
	}
}

func TestReturnModifierPARTS(t *testing.T) {
	got := ReturnModifierPARTS(0xFFFF_0000_DEAD_B321, 0x0000_ABCD_EF01_2345)
	if want := uint64(0xB321_ABCD_EF01_2345); got != want {
		t.Fatalf("ReturnModifierPARTS = %#x, want %#x", got, want)
	}
}

func TestObjectModifierListing4(t *testing.T) {
	// Listing 4: mov w9, #0xfb45; bfi x9, x0, #16, #48.
	obj := uint64(0xFFFF_0000_0DE0_0040)
	got := ObjectModifier(obj, 0xFB45)
	if got&0xFFFF != 0xFB45 {
		t.Fatalf("ObjectModifier low 16 = %#x, want 0xFB45", got&0xFFFF)
	}
	if got>>16 != obj&0x0000_FFFF_FFFF_FFFF {
		t.Fatalf("ObjectModifier high 48 = %#x, want %#x", got>>16, obj&0x0000_FFFF_FFFF_FFFF)
	}
}

// TestReplaySurfaceClangSP demonstrates §4.2: with the SP-only modifier,
// two different threads whose kernel stacks are 4 KiB aligned produce the
// same signed return address for the same stack depth — a replayable PAC.
// The Camouflage modifier at the same depth in a different function does
// not replay.
func TestReplaySurfaceClangSP(t *testing.T) {
	s := testSigner()
	retAddr := uint64(KernelBase) | 0x0040_1000 // some return site
	spThread1 := uint64(KernelBase) | 0x0800_3F40
	spThread2 := uint64(KernelBase) | 0x0900_3F40 // same low bits: stacks 4 KiB aligned

	sig1 := s.Sign(retAddr, ReturnModifierClangSP(spThread1), KeyIB)
	sig2 := s.Sign(retAddr, ReturnModifierClangSP(spThread2), KeyIB)
	if sig1 == sig2 {
		t.Log("full-SP modifiers differ in high bits here; replay needs equal SP")
	}
	// Same thread, same SP later in time (shallow 16 KiB stack): identical
	// modifier, so the old signed pointer replays.
	if _, ok := s.Auth(sig1, ReturnModifierClangSP(spThread1), KeyIB); !ok {
		t.Fatal("replayed ClangSP pointer did not authenticate")
	}

	// Camouflage: same SP but different function address -> no replay.
	fn1 := uint64(KernelBase) | 0x0040_0000
	fn2 := uint64(KernelBase) | 0x0050_0000
	sigA := s.Sign(retAddr, ReturnModifierCamouflage(spThread1, fn1), KeyIB)
	if _, ok := s.Auth(sigA, ReturnModifierCamouflage(spThread1, fn2), KeyIB); ok {
		t.Fatal("Camouflage pointer replayed across functions")
	}
}

// TestReplaySurfacePARTS demonstrates §7: PARTS's 16-bit SP component
// collides for stacks separated by a multiple of 64 KiB, while Camouflage's
// 32-bit SP component does not collide until 4 GiB spacing.
func TestReplaySurfacePARTS(t *testing.T) {
	s := testSigner()
	retAddr := uint64(KernelBase) | 0x0040_1000
	funcID := uint64(777)
	sp1 := uint64(KernelBase) | 0x0081_3F40
	sp2 := sp1 + 0x10000 // 64 KiB apart: PARTS modifier identical

	m1 := ReturnModifierPARTS(sp1, funcID)
	m2 := ReturnModifierPARTS(sp2, funcID)
	if m1 != m2 {
		t.Fatalf("PARTS modifiers differ (%#x vs %#x); expected collision at 64 KiB spacing", m1, m2)
	}
	sig := s.Sign(retAddr, m1, KeyIB)
	if _, ok := s.Auth(sig, m2, KeyIB); !ok {
		t.Fatal("PARTS replay did not authenticate despite modifier collision")
	}

	fn := uint64(KernelBase) | 0x0040_0000
	c1 := ReturnModifierCamouflage(sp1, fn)
	c2 := ReturnModifierCamouflage(sp2, fn)
	if c1 == c2 {
		t.Fatal("Camouflage modifiers collided at 64 KiB stack spacing")
	}
}

func TestTypeConstStable(t *testing.T) {
	a := TypeConst("file", "f_ops")
	if a != TypeConst("file", "f_ops") {
		t.Fatal("TypeConst is not deterministic")
	}
	if a == TypeConst("file", "f_cred") {
		t.Error("TypeConst collides for distinct members (unlucky hash; pick different names)")
	}
	if a == TypeConst("inode", "f_ops") {
		t.Error("TypeConst collides for distinct types (unlucky hash; pick different names)")
	}
}

func TestPoisonedPointerNotCanonicalBothSides(t *testing.T) {
	s := testSigner()
	for _, ptr := range []uint64{uint64(KernelBase) | 0x1000, 0x0000_7FFF_0000_2000} {
		signed := s.Sign(ptr, 1, KeyIA)
		got, ok := s.Auth(signed, 2, KeyIA)
		if ok {
			t.Fatalf("Auth unexpectedly succeeded for %#x", ptr)
		}
		if s.cfg.IsCanonical(got) {
			t.Errorf("poisoned %#x canonical", got)
		}
	}
}

// scatterLoop deposits the low bits of mac into the set bits of mask,
// lowest first.
func scatterLoop(mask, mac uint64) uint64 {
	var out uint64
	b := 0
	for i := 0; i < 64; i++ {
		if mask&(1<<i) != 0 {
			if mac&(1<<b) != 0 {
				out |= 1 << i
			}
			b++
		}
	}
	return out
}

// TestSignerMatchesFieldDefinition checks the signer's precomputed field
// geometry against the bit-loop Config.PACField definition on every
// supported layout: Sign, Auth (success and the poisoned failure), Strip
// and IsPoisoned, on both sides of the address space and for both key
// classes.
func TestSignerMatchesFieldDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for va := 36; va <= 52; va++ {
		for _, tbiU := range []bool{false, true} {
			for _, tbiK := range []bool{false, true} {
				cfg := Config{VABits: va, TBIUser: tbiU, TBIKernel: tbiK}
				s := testSignerFor(cfg)
				for _, kernel := range []bool{false, true} {
					mask, size := cfg.PACField(kernel)
					for i := 0; i < 32; i++ {
						ptr := rng.Uint64() &^ (1 << selectBit)
						if kernel {
							ptr |= 1 << selectBit
						}
						canon := cfg.Canonical(ptr)
						if got := s.Strip(ptr); got != canon {
							t.Fatalf("%+v: Strip(%#x) = %#x, want %#x", cfg, ptr, got, canon)
						}
						mod := rng.Uint64()
						for _, id := range []KeyID{KeyIB, KeyDA} {
							k := s.Key(id)
							mac := qarma.New(qarma.Key{W0: k.Hi, K0: k.Lo}, qarma.DefaultRounds).Encrypt(canon, mod)
							want := canon&^mask | scatterLoop(mask, mac)
							signed := s.Sign(ptr, mod, id)
							if signed != want {
								t.Fatalf("%+v: Sign(%#x, %#x, %v) = %#x, want %#x", cfg, ptr, mod, id, signed, want)
							}
							if got, ok := s.Auth(signed, mod, id); !ok || got != canon {
								t.Fatalf("%+v: Auth(%#x, %v) = (%#x, %v), want (%#x, true)", cfg, signed, id, got, ok, canon)
							}
							// Flip one PAC bit: authentication must fail and
							// poison the canonical pointer.
							forged := signed ^ scatterLoop(mask, 1<<uint(rng.Intn(size)))
							poisoned := canon ^ poisonBit(mask, id)
							if got, ok := s.Auth(forged, mod, id); ok || got != poisoned {
								t.Fatalf("%+v: Auth(forged %#x, %v) = (%#x, %v), want (%#x, false)", cfg, forged, id, got, ok, poisoned)
							}
							if !s.IsPoisoned(poisoned) || cfg.IsCanonical(poisoned) {
								t.Fatalf("%+v: poisoned %#x: IsPoisoned = %v, IsCanonical = %v", cfg, poisoned, s.IsPoisoned(poisoned), cfg.IsCanonical(poisoned))
							}
						}
						if s.IsPoisoned(canon) {
							t.Fatalf("%+v: IsPoisoned(canonical %#x) = true", cfg, canon)
						}
					}
				}
			}
		}
	}
}

// TestSignerDoesNotAllocate pins the allocation-free key install, sign and
// authenticate that key-register MSR writes and RestoreState rely on.
func TestSignerDoesNotAllocate(t *testing.T) {
	s := testSigner()
	ptr := uint64(KernelBase) | 0x4000
	allocs := testing.AllocsPerRun(100, func() {
		s.SetKey(KeyIB, Key{Hi: ptr, Lo: ^ptr})
		signed := s.Sign(ptr, 1, KeyIB)
		s.Auth(signed, 1, KeyIB)
		s.Auth(signed, 2, KeyIB)
		s.GenericMAC(ptr, 3)
	})
	if allocs != 0 {
		t.Fatalf("SetKey/Sign/Auth/GenericMAC allocate %.1f times per run, want 0", allocs)
	}
}

// memoRef checks a long-lived Signer, memo and all, against fresh
// ciphers: every Sign must equal the key's QARMA output scattered through
// Config.PACField, and every Auth must succeed exactly when the PAC bits
// match that output, and otherwise poison the canonical pointer.
type memoRef struct {
	t testing.TB
	s *Signer
}

// want returns ptr signed under modifier mod with the key installed in
// slot id, computed by a fresh cipher, and the PAC field mask.
func (r memoRef) want(ptr, mod uint64, id KeyID) (signed, mask uint64) {
	cfg := r.s.Config()
	canon := cfg.Canonical(ptr)
	mask, _ = cfg.PACField(cfg.IsKernel(ptr))
	k := r.s.Key(id)
	mac := qarma.New(qarma.Key{W0: k.Hi, K0: k.Lo}, qarma.DefaultRounds).Encrypt(canon, mod)
	return canon&^mask | scatterLoop(mask, mac), mask
}

func (r memoRef) sign(ptr, mod uint64, id KeyID) uint64 {
	r.t.Helper()
	want, _ := r.want(ptr, mod, id)
	if got := r.s.Sign(ptr, mod, id); got != want {
		r.t.Fatalf("Sign(%#x, %#x, %v) under %+v = %#x, want %#x", ptr, mod, id, r.s.Key(id), got, want)
	}
	return want
}

// auth authenticates signed and reports whether the reference accepts it.
func (r memoRef) auth(signed, mod uint64, id KeyID) bool {
	r.t.Helper()
	want, mask := r.want(signed, mod, id)
	ok := signed&mask == want&mask
	wantPtr := r.s.Config().Canonical(signed)
	if !ok {
		wantPtr ^= poisonBit(mask, id)
	}
	if got, gotOK := r.s.Auth(signed, mod, id); got != wantPtr || gotOK != ok {
		r.t.Fatalf("Auth(%#x, %#x, %v) under %+v = (%#x, %v), want (%#x, %v)",
			signed, mod, id, r.s.Key(id), got, gotOK, wantPtr, ok)
	}
	return ok
}

// TestSignerMemoMatchesCipher runs one Signer through the pattern the
// memo is built for and against: each slot switches between a kernel and
// a user key as key_setter does (the two keys share Lo, so only Hi tells
// them apart), the same (pointer, modifier) pairs are signed under both
// keys, and pairs that share a memo slot evict each other.
func TestSignerMemoMatchesCipher(t *testing.T) {
	s := NewSigner(DefaultConfig)
	r := memoRef{t, s}
	// A fresh memo is zeroed: the all-zero key signing pointer 0 under
	// modifier 0 must still run the cipher.
	r.sign(0, 0, KeyIA)

	kernelKey := func(id KeyID) Key { return Key{Hi: 0x1111 * uint64(id+1), Lo: 0xC0FFEE} }
	userKey := func(id KeyID) Key { return Key{Hi: 0x2222 * uint64(id+1), Lo: 0xC0FFEE} }
	type pair struct{ ptr, mod uint64 }
	work := []pair{
		{KernelBase | 0x40_1000, ReturnModifierCamouflage(KernelBase|0x80_3F40, KernelBase|0x40_0F00)},
		{KernelBase | 0x40_2004, ReturnModifierCamouflage(KernelBase|0x80_3F20, KernelBase|0x40_1F00)},
		{KernelBase | 0x0DE0_0040, ObjectModifier(KernelBase|0x0DE0_0000, 0xFB45)},
		{0x0000_7FFF_0000_1000, 7},
	}
	// Pairs sharing the first pair's memo slot, found by search.
	slot := memoIndex(work[0].ptr, work[0].mod)
	for p := uint64(KernelBase | 0x50_0000); len(work) < 7; p += 4 {
		if memoIndex(p, work[0].mod) == slot {
			work = append(work, pair{p, work[0].mod})
		}
	}

	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 50; round++ {
		for id := KeyID(0); id < NumKeys; id++ {
			// Syscall entry: the kernel key signs and authenticates the
			// working set, in a fresh order each time.
			s.SetKey(id, kernelKey(id))
			rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
			signed := make([]uint64, len(work))
			for i, p := range work {
				signed[i] = r.sign(p.ptr, p.mod, id)
				if !r.auth(signed[i], p.mod, id) {
					t.Fatalf("round %d: %v rejected its own signature %#x", round, id, signed[i])
				}
			}
			// Syscall exit: the user key signs the same pairs, and the
			// kernel key's signatures must fail under it.
			s.SetKey(id, userKey(id))
			for i, p := range work {
				r.sign(p.ptr, p.mod, id)
				if r.auth(signed[i], p.mod, id) && s.Config().IsKernel(p.ptr) {
					t.Fatalf("round %d: %v accepted %#x, signed under the kernel key, under the user key", round, id, signed[i])
				}
			}
		}
	}
}

// FuzzSigner drives one Signer through fuzzer-chosen sequences of key
// installs, signs and authentications, four bytes per operation, over
// small value spaces so inputs repeat, collide in the memo and switch
// keys under it; memoRef checks every result against fresh ciphers. The
// operation byte is kind*NumKeys + slot, kind 0 installing a key, 1
// signing and 2 authenticating the last signed pointer.
func FuzzSigner(f *testing.F) {
	// Re-sign one pair after a key change that keeps Lo, authenticate,
	// and authenticate again after switching back.
	f.Add([]byte{1, 1, 2, 0, 6, 9, 9, 0, 1, 3, 2, 0, 6, 9, 9, 0, 11, 9, 9, 0, 1, 1, 2, 0, 11, 9, 9, 0})
	// The all-zero key signs pointer 0 under modifier 0 on a fresh memo.
	f.Add([]byte{5, 0, 0, 0, 10, 0, 0, 0})
	// User and kernel pointers with stale PAC bits, across slots.
	f.Add([]byte{6, 200, 7, 0x5A, 8, 201, 7, 1, 13, 201, 7, 1, 3, 7, 7, 7, 8, 201, 7, 1, 13, 201, 7, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSigner(DefaultConfig)
		r := memoRef{t, s}
		var last uint64
		for ; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0], uint64(ops[1]), uint64(ops[2]), uint64(ops[3])
			id := KeyID(op % NumKeys)
			// a picks the pointer (bit 0: kernel side), c also plants
			// stale bits in its PAC field; b and c make the modifier.
			ptr := a<<11 | (c&0x7F)<<48
			if a&1 != 0 {
				ptr |= KernelBase
			}
			mod := b | c<<32
			switch op / NumKeys % 3 {
			case 0:
				s.SetKey(id, Key{Hi: a, Lo: b})
			case 1:
				last = r.sign(ptr, mod, id)
			default:
				r.auth(last, mod, id)
			}
		}
	})
}
