package qarma

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSigma1IsInvolution(t *testing.T) {
	for i, v := range sigma1 {
		if sigma1[v] != byte(i) {
			t.Fatalf("sigma1[sigma1[%#x]] = %#x, want %#x", i, sigma1[v], i)
		}
	}
}

func TestTauInverse(t *testing.T) {
	for i := range tau {
		if tauInv[tau[i]] != i {
			t.Fatalf("tauInv[tau[%d]] = %d, want %d", i, tauInv[tau[i]], i)
		}
	}
}

// TestTablesMatchReference checks each table-driven step against its
// nibble-at-a-time definition, so a mismatch in Encrypt points at a step.
func TestTablesMatchReference(t *testing.T) {
	steps := []struct {
		name      string
		fast, ref func(uint64) uint64
	}{
		{"sub", sub, subCells},
		{"mix", mix, mixColumns},
		{"tau", func(x uint64) uint64 { return permute(&tauTab, x) }, shuffleCells},
		{"tauInv", func(x uint64) uint64 { return permute(&tauInvTab, x) }, shuffleCellsInv},
		{"tweak", func(x uint64) uint64 { return permute(&tweakTab, x) }, updateTweak},
	}
	for _, s := range steps {
		f := func(x uint64) bool { return s.fast(x) == s.ref(x) }
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

// TestEncryptMatchesReference requires the table-driven Encrypt to equal
// the reference cipher on seeded random keys, tweaks and plaintexts at
// every supported round count.
func TestEncryptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for rounds := 3; rounds <= 8; rounds++ {
		for i := 0; i < 2000; i++ {
			c := New(Key{W0: rng.Uint64(), K0: rng.Uint64()}, rounds)
			p, tw := rng.Uint64(), rng.Uint64()
			if got, want := c.Encrypt(p, tw), c.referenceEncrypt(p, tw); got != want {
				t.Fatalf("rounds=%d key=%+v Encrypt(%#x, %#x) = %#x, reference %#x", rounds, *c, p, tw, got, want)
			}
		}
	}
}

// FuzzEncrypt requires the table-driven Encrypt to equal the reference
// cipher on any input. The round count byte maps onto [3, 8], leaving 3..8
// themselves, so the golden vectors seed the corpus as they are.
func FuzzEncrypt(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(5))
	f.Add(uint64(0x84BE85CE9804E94B), uint64(0xEC2802D4E0A488E9), uint64(0xFB623599DA6E8127), uint64(0x477D469DEC0B8762), uint8(5))
	f.Add(uint64(0x84BE85CE9804E94B), uint64(0xEC2802D4E0A488E9), uint64(0xFB623599DA6E8127), uint64(0x477D469DEC0B8762), uint8(7))
	f.Fuzz(func(t *testing.T, w0, k0, p, tw uint64, r uint8) {
		rounds := 3 + (int(r)+3)%6
		c := New(Key{W0: w0, K0: k0}, rounds)
		if got, want := c.Encrypt(p, tw), c.referenceEncrypt(p, tw); got != want {
			t.Fatalf("rounds=%d Encrypt = %#x, reference %#x", rounds, got, want)
		}
	})
}

func TestShuffleCellsRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		return shuffleCellsInv(shuffleCells(x)) == x && shuffleCells(shuffleCellsInv(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixColumnsIsInvolution(t *testing.T) {
	f := func(x uint64) bool {
		return mixColumns(mixColumns(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubCellsIsInvolution(t *testing.T) {
	f := func(x uint64) bool {
		return subCells(subCells(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLFSRInverse(t *testing.T) {
	for v := byte(0); v < 16; v++ {
		if lfsrInv(lfsr(v)) != v {
			t.Fatalf("lfsrInv(lfsr(%#x)) = %#x", v, lfsrInv(lfsr(v)))
		}
		if lfsr(lfsrInv(v)) != v {
			t.Fatalf("lfsr(lfsrInv(%#x)) = %#x", v, lfsr(lfsrInv(v)))
		}
	}
}

func TestLFSRPeriod(t *testing.T) {
	// ω must cycle through all 15 non-zero states (maximal period) and fix 0.
	if lfsr(0) != 0 {
		t.Fatalf("lfsr(0) = %#x, want 0", lfsr(0))
	}
	seen := map[byte]bool{}
	v := byte(1)
	for i := 0; i < 15; i++ {
		if seen[v] {
			t.Fatalf("lfsr cycle shorter than 15: repeated %#x after %d steps", v, i)
		}
		seen[v] = true
		v = lfsr(v)
	}
	if v != 1 {
		t.Fatalf("lfsr period is not 15: got back %#x", v)
	}
}

func TestUpdateTweakRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		return updateTweakInv(updateTweak(x)) == x && updateTweak(updateTweakInv(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellsPackRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		return pack(cells(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for rounds := 3; rounds <= 8; rounds++ {
		c := New(Key{W0: 0x84BE85CE9804E94B, K0: 0xEC2802D4E0A488E9}, rounds)
		f := func(p, tw uint64) bool {
			return c.referenceDecrypt(c.referenceEncrypt(p, tw), tw) == p
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
	}
}

func TestEncryptDecryptRandomKeys(t *testing.T) {
	f := func(w0, k0, p, tw uint64) bool {
		c := New(Key{W0: w0, K0: k0}, DefaultRounds)
		return c.referenceDecrypt(c.referenceEncrypt(p, tw), tw) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptIsPermutationPerTweak(t *testing.T) {
	// Distinct plaintexts must map to distinct ciphertexts under one tweak.
	c := New(Key{W0: 1, K0: 2}, DefaultRounds)
	seen := map[uint64]uint64{}
	for p := uint64(0); p < 4096; p++ {
		ct := c.Encrypt(p, 0xDEADBEEF)
		if prev, dup := seen[ct]; dup {
			t.Fatalf("collision: Encrypt(%#x) == Encrypt(%#x) == %#x", p, prev, ct)
		}
		seen[ct] = p
	}
}

// TestAvalanchePlaintext checks that flipping any single plaintext bit flips
// close to half of the output bits on average (the strict avalanche
// criterion, within generous statistical bounds).
func TestAvalanchePlaintext(t *testing.T) {
	c := New(Key{W0: 0x0123456789ABCDEF, K0: 0xFEDCBA9876543210}, DefaultRounds)
	total := 0
	n := 0
	for trial := uint64(0); trial < 64; trial++ {
		p := trial * 0x9E3779B97F4A7C15
		base := c.Encrypt(p, 42)
		for bit := 0; bit < 64; bit++ {
			d := c.Encrypt(p^(1<<bit), 42)
			total += bits.OnesCount64(base ^ d)
			n++
		}
	}
	avg := float64(total) / float64(n)
	if avg < 28 || avg > 36 {
		t.Fatalf("plaintext avalanche average %.2f bits, want ~32", avg)
	}
}

// TestAvalancheTweak checks diffusion of the tweak (the PAuth modifier).
func TestAvalancheTweak(t *testing.T) {
	c := New(Key{W0: 0x0123456789ABCDEF, K0: 0xFEDCBA9876543210}, DefaultRounds)
	total := 0
	n := 0
	for trial := uint64(0); trial < 64; trial++ {
		tw := trial*0x9E3779B97F4A7C15 + 1
		base := c.Encrypt(0x1122334455667788, tw)
		for bit := 0; bit < 64; bit++ {
			d := c.Encrypt(0x1122334455667788, tw^(1<<bit))
			total += bits.OnesCount64(base ^ d)
			n++
		}
	}
	avg := float64(total) / float64(n)
	if avg < 28 || avg > 36 {
		t.Fatalf("tweak avalanche average %.2f bits, want ~32", avg)
	}
}

// TestAvalancheKey checks diffusion of both key halves.
func TestAvalancheKey(t *testing.T) {
	total := 0
	n := 0
	for bit := 0; bit < 64; bit++ {
		base := New(Key{W0: 5, K0: 7}, DefaultRounds).Encrypt(99, 3)
		cw := New(Key{W0: 5 ^ 1<<bit, K0: 7}, DefaultRounds).Encrypt(99, 3)
		ck := New(Key{W0: 5, K0: 7 ^ 1<<bit}, DefaultRounds).Encrypt(99, 3)
		total += bits.OnesCount64(base^cw) + bits.OnesCount64(base^ck)
		n += 2
	}
	avg := float64(total) / float64(n)
	if avg < 26 || avg > 38 {
		t.Fatalf("key avalanche average %.2f bits, want ~32", avg)
	}
}

func TestMACTruncation(t *testing.T) {
	c := New(Key{W0: 11, K0: 13}, DefaultRounds)
	v, tw := uint64(0xFFFF000012345678), uint64(0x22)
	if got, want := c.MAC(v, tw), uint32(c.Encrypt(v, tw)); got != want {
		t.Fatalf("MAC = %#x, want low 32 bits of Encrypt = %#x", got, want)
	}
}

func TestNewPanicsOnBadRounds(t *testing.T) {
	for _, r := range []int{-1, 0, 2, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(rounds=%d) did not panic", r)
				}
			}()
			New(Key{}, r)
		}()
	}
}

func TestOrthoW(t *testing.T) {
	// o(x) = (x >>> 1) ^ (x >> 63): check a couple of hand-computed cases.
	if got := orthoW(1); got != 0x8000000000000000 {
		t.Fatalf("orthoW(1) = %#x", got)
	}
	if got := orthoW(0x8000000000000000); got != 0x4000000000000001 {
		t.Fatalf("orthoW(0x8000000000000000) = %#x", got)
	}
}

// Golden vectors pin the exact cipher output so that refactoring cannot
// silently change every PAC in the system. Values were produced by this
// implementation and are regression anchors, not published test vectors
// (see DESIGN.md: the instantiation is QARMA-64-σ1-structured; constants
// follow the QARMA paper).
func TestGoldenVectors(t *testing.T) {
	type vec struct {
		w0, k0, p, tw uint64
		rounds        int
		want          uint64
	}
	vectors := []vec{
		{0, 0, 0, 0, 5, goldenZero5},
		{0x84BE85CE9804E94B, 0xEC2802D4E0A488E9, 0xFB623599DA6E8127, 0x477D469DEC0B8762, 5, goldenPaper5},
		{0x84BE85CE9804E94B, 0xEC2802D4E0A488E9, 0xFB623599DA6E8127, 0x477D469DEC0B8762, 7, goldenPaper7},
	}
	for i, v := range vectors {
		c := New(Key{W0: v.w0, K0: v.k0}, v.rounds)
		if got := c.Encrypt(v.p, v.tw); got != v.want {
			t.Errorf("vector %d: Encrypt = %#016x, want %#016x", i, got, v.want)
		}
	}
}

// Regression anchors produced by this implementation (see TestGoldenVectors).
const (
	goldenZero5  = 0x315D7217D9E7D4CD
	goldenPaper5 = 0x6A3530FB3E7201B3
	goldenPaper7 = 0xF7180ACC50294AA3
)
