// Package qarma implements the QARMA-64 tweakable block cipher (R. Avanzi,
// "The QARMA Block Cipher Family", IACR ToSC 2017). QARMA is the reference
// pointer-authentication-code (PAC) algorithm of the ARMv8.3-A pointer
// authentication extension: the PAC inserted into the unused bits of an
// AArch64 pointer is a truncation of QARMA-64 applied to the pointer under a
// 128-bit key, with the PAuth modifier as the tweak.
//
// QARMA is a three-stage reflection cipher: r forward rounds, a keyed
// pseudo-reflector, and r backward rounds that are the functional inverses of
// the forward rounds. The σ1 S-box and the MixColumns-like matrix M are
// involutions, which is what makes the reflective construction work; the
// backward rounds undo the cell permutation τ with τ⁻¹.
//
// Encrypt runs in table and bit-parallel form: σ1 is a byte-wide table, M is
// three 64-bit rotations of nibble-rotated words, and τ, τ⁻¹ and the tweak
// update are per-nibble-position tables. The package tests hold the
// straightforward nibble-at-a-time cipher and its inverse as the reference
// the fast path must equal on every input.
//
// The instantiation here follows the QARMA-64-σ1 parameter set with r
// configurable (the ARM reference PAC uses a 5-round variant). Round
// constants are the π-derived constants of the QARMA paper.
package qarma

import "math/bits"

// DefaultRounds is the number of forward (and hence also backward) rounds
// package pac passes to New. The QARMA paper recommends r = 7 for QARMA-64;
// the ARMv8.3 ComputePAC reference instantiation uses a 5-round variant.
const DefaultRounds = 5

// alpha is the reflector constant α of the QARMA paper.
const alpha = 0xC0AC29B7C97C50DD

// roundConst holds the π-derived round constants c0..c7.
var roundConst = [8]uint64{
	0x0000000000000000,
	0x13198A2E03707344,
	0xA4093822299F31D0,
	0x082EFA98EC4E6C89,
	0x452821E638D01377,
	0xBE5466CF34E90C6C,
	0x3F84D5B5B5470917,
	0x9216D5D98979FB1B,
}

// sigma1 is the σ1 S-box of the QARMA paper (an involution on 4-bit cells).
var sigma1 = [16]byte{0xA, 0xD, 0xE, 0x6, 0xF, 0x7, 0x3, 0x5, 0x9, 0x8, 0x0, 0xC, 0xB, 0x1, 0x2, 0x4}

// tau is the cell permutation τ: output cell i takes input cell tau[i].
var tau = [16]int{0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2}

// tweakPerm is the tweak cell permutation h.
var tweakPerm = [16]int{6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11}

// lfsrCells lists the tweak cells to which the ω LFSR is applied each round.
var lfsrCells = [4]int{0, 1, 3, 4}

// Cells are numbered from the most significant nibble (cell 0, bits 63..60)
// as in the QARMA paper, so the 4x4 state matrix has row r in the 16-bit
// lane at bits 63-16r..48-16r.

// sbox applies σ1 to both nibbles of a byte.
var sbox [256]byte

// tauTab, tauInvTab and tweakTab hold τ, τ⁻¹ and the tweak update (h, then
// ω on lfsrCells) as one entry per input cell and cell value: the map's
// image of that value alone in that cell. All three maps are GF(2)-linear
// and move each input cell to exactly one output cell, so the image of a
// whole state is the XOR of its sixteen cells' entries.
var tauTab, tauInvTab, tweakTab [16][16]uint64

// cellShift is the bit offset of cell i.
func cellShift(i int) uint { return uint(60 - 4*i) }

func init() {
	// σ1 must be an involution; the reflector depends on it.
	for i, v := range sigma1 {
		if sigma1[v] != byte(i) {
			panic("qarma: sigma1 is not an involution")
		}
	}
	for b := range sbox {
		sbox[b] = sigma1[b>>4]<<4 | sigma1[b&0xF]
	}
	var omega [16]bool
	for _, i := range lfsrCells {
		omega[i] = true
	}
	for i := 0; i < 16; i++ {
		for v := byte(0); v < 16; v++ {
			tauTab[tau[i]][v] = uint64(v) << cellShift(i)
			tauInvTab[i][v] = uint64(v) << cellShift(tau[i])
			w := v
			if omega[i] {
				w = lfsr(v)
			}
			tweakTab[tweakPerm[i]][v] = uint64(w) << cellShift(i)
		}
	}
}

// Key is a 128-bit QARMA key, split into the whitening half W0 and the core
// half K0 as in the QARMA paper. An ARMv8.3 PAuth key register pair
// (APxKeyHi_EL1, APxKeyLo_EL1) maps onto (W0, K0).
type Key struct {
	W0 uint64
	K0 uint64
}

// Cipher is a QARMA-64 instance with a fixed key and round count.
type Cipher struct {
	rounds int
	w0, w1 uint64 // whitening keys
	k0, k1 uint64 // core and reflector keys
}

// New returns a QARMA-64 cipher for key k with the given number of forward
// rounds. New panics if rounds is not in [3, 8] (the supported schedule of
// round constants).
func New(k Key, rounds int) *Cipher {
	if rounds < 3 || rounds > 8 {
		panic("qarma: rounds out of range [3, 8]")
	}
	return &Cipher{
		rounds: rounds,
		w0:     k.W0,
		w1:     orthoW(k.W0),
		k0:     k.K0,
		k1:     k.K0 ^ alpha,
	}
}

// orthoW derives w1 from w0: o(x) = (x >>> 1) XOR (x >> 63).
func orthoW(x uint64) uint64 {
	return (x>>1 | x<<63) ^ (x >> 63)
}

// lfsr applies the ω LFSR to a cell: (b3,b2,b1,b0) → (b0⊕b1, b3, b2, b1).
func lfsr(v byte) byte {
	b0 := v & 1
	b1 := (v >> 1) & 1
	return (v >> 1) | ((b0 ^ b1) << 3)
}

// sub applies σ1 to every cell of the state.
func sub(x uint64) uint64 {
	return uint64(sbox[byte(x)]) |
		uint64(sbox[byte(x>>8)])<<8 |
		uint64(sbox[byte(x>>16)])<<16 |
		uint64(sbox[byte(x>>24)])<<24 |
		uint64(sbox[byte(x>>32)])<<32 |
		uint64(sbox[byte(x>>40)])<<40 |
		uint64(sbox[byte(x>>48)])<<48 |
		uint64(sbox[byte(x>>56)])<<56
}

// permute applies a cell map given as per-cell tables (tauTab, tauInvTab,
// tweakTab).
func permute(t *[16][16]uint64, x uint64) uint64 {
	return t[0][x>>60] ^ t[1][x>>56&0xF] ^ t[2][x>>52&0xF] ^ t[3][x>>48&0xF] ^
		t[4][x>>44&0xF] ^ t[5][x>>40&0xF] ^ t[6][x>>36&0xF] ^ t[7][x>>32&0xF] ^
		t[8][x>>28&0xF] ^ t[9][x>>24&0xF] ^ t[10][x>>20&0xF] ^ t[11][x>>16&0xF] ^
		t[12][x>>12&0xF] ^ t[13][x>>8&0xF] ^ t[14][x>>4&0xF] ^ t[15][x&0xF]
}

// mix multiplies the state by the involutory almost-MDS matrix
// M = circ(0, ρ, ρ², ρ), where ρ rotates a cell left by one bit: output row
// i is ρ(row i+1) ⊕ ρ²(row i+2) ⊕ ρ(row i+3), rows counted mod 4. Rotating
// every cell at once and then the whole word by 16k bits lines row i+k up
// with row i.
func mix(x uint64) uint64 {
	r1 := x<<1&0xEEEE_EEEE_EEEE_EEEE | x>>3&0x1111_1111_1111_1111
	r2 := x<<2&0xCCCC_CCCC_CCCC_CCCC | x>>2&0x3333_3333_3333_3333
	return bits.RotateLeft64(r1, 16) ^ bits.RotateLeft64(r2, 32) ^ bits.RotateLeft64(r1, 48)
}

// Encrypt enciphers the 64-bit plaintext p under tweak t.
//
//camo:hotpath
func (c *Cipher) Encrypt(p, t uint64) uint64 {
	// The forward rounds use tweaks tw[0..rounds-1], the central rounds
	// tw[rounds], and the backward rounds replay tw[rounds-1..0].
	var tw [9]uint64
	tw[0] = t
	// The first forward round is short: no diffusion layer.
	is := sub(p ^ c.w0 ^ c.k0 ^ t ^ roundConst[0])
	for i := 1; i < c.rounds; i++ {
		tw[i] = permute(&tweakTab, tw[i-1])
		is = sub(mix(permute(&tauTab, is^c.k0^tw[i]^roundConst[i])))
	}
	r := c.rounds
	tw[r] = permute(&tweakTab, tw[r-1])
	// Central whitening round, reflector (τ, Q = M, key addition, τ⁻¹) and
	// the inverse of the central round.
	is = sub(mix(permute(&tauTab, is^c.w1^tw[r])))
	is = permute(&tauInvTab, mix(permute(&tauTab, is))^c.k1)
	is = permute(&tauInvTab, mix(sub(is))) ^ c.w0 ^ tw[r]
	// Backward rounds: the inverses of the forward rounds, with α folded
	// into the round tweakey.
	for i := r - 1; i > 0; i-- {
		is = permute(&tauInvTab, mix(sub(is))) ^ c.k0 ^ tw[i] ^ roundConst[i] ^ alpha
	}
	return sub(is) ^ c.k0 ^ t ^ roundConst[0] ^ alpha ^ c.w1
}

// MAC computes a 32-bit message authentication code over the 64-bit value v
// with tweak t, as the ARMv8.3 PAC construction does: the full 64-bit QARMA
// output truncated to its low 32 bits.
func (c *Cipher) MAC(v, t uint64) uint32 {
	return uint32(c.Encrypt(v, t))
}
