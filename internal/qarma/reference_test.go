package qarma

// This file holds the nibble-at-a-time QARMA-64: every step unpacks the
// state into its sixteen cells, exactly as the QARMA paper writes the
// cipher. It is the reference the table-driven Encrypt must equal on every
// key, tweak, plaintext and round count. It also carries referenceDecrypt,
// the explicit inverse circuit the round-trip tests check the construction
// with; no non-test code deciphers, so the package exports no Decrypt.

// tauInv is the inverse of tau.
var tauInv = invertPerm(tau)

// tweakPermInv is the inverse of tweakPerm.
var tweakPermInv = invertPerm(tweakPerm)

func invertPerm(p [16]int) [16]int {
	var inv [16]int
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// cells unpacks a 64-bit block into 16 nibbles, cell 0 being the most
// significant nibble (the convention of the QARMA paper).
func cells(x uint64) [16]byte {
	var c [16]byte
	for i := 0; i < 16; i++ {
		c[i] = byte(x>>(60-4*i)) & 0xF
	}
	return c
}

// pack is the inverse of cells.
func pack(c [16]byte) uint64 {
	var x uint64
	for i := 0; i < 16; i++ {
		x |= uint64(c[i]&0xF) << (60 - 4*i)
	}
	return x
}

// subCells applies the σ1 S-box to every cell of the state.
func subCells(x uint64) uint64 {
	var y uint64
	for i := 0; i < 64; i += 4 {
		y |= uint64(sigma1[(x>>i)&0xF]) << i
	}
	return y
}

// shuffleCells applies the cell permutation τ.
func shuffleCells(x uint64) uint64 {
	c := cells(x)
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tau[i]]
	}
	return pack(d)
}

// shuffleCellsInv applies τ⁻¹.
func shuffleCellsInv(x uint64) uint64 {
	c := cells(x)
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tauInv[i]]
	}
	return pack(d)
}

// rotNibble rotates a 4-bit cell left by n.
func rotNibble(v byte, n uint) byte {
	v &= 0xF
	return byte((v<<n | v>>(4-n)) & 0xF)
}

// mixColumns multiplies the state, viewed as a 4x4 cell matrix in row-major
// order, by the involutory almost-MDS matrix M = circ(0, ρ¹, ρ², ρ¹), where
// ρ is a one-bit left rotation of a cell. Columns of the matrix are the
// state columns c, c+4, c+8, c+12.
func mixColumns(x uint64) uint64 {
	c := cells(x)
	var d [16]byte
	for col := 0; col < 4; col++ {
		a0 := c[col]
		a1 := c[col+4]
		a2 := c[col+8]
		a3 := c[col+12]
		d[col] = rotNibble(a1, 1) ^ rotNibble(a2, 2) ^ rotNibble(a3, 1)
		d[col+4] = rotNibble(a0, 1) ^ rotNibble(a2, 1) ^ rotNibble(a3, 2)
		d[col+8] = rotNibble(a0, 2) ^ rotNibble(a1, 1) ^ rotNibble(a3, 1)
		d[col+12] = rotNibble(a0, 1) ^ rotNibble(a1, 2) ^ rotNibble(a2, 1)
	}
	return pack(d)
}

// lfsrInv is the inverse of lfsr.
func lfsrInv(v byte) byte {
	b3 := (v >> 3) & 1
	b0 := v & 1
	return ((v << 1) & 0xF) | (b3 ^ b0)
}

// updateTweak advances the tweak by one round: cell permutation h followed
// by the ω LFSR on cells 0, 1, 3 and 4.
func updateTweak(t uint64) uint64 {
	c := cells(t)
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tweakPerm[i]]
	}
	for _, i := range lfsrCells {
		d[i] = lfsr(d[i])
	}
	return pack(d)
}

// updateTweakInv is the inverse of updateTweak.
func updateTweakInv(t uint64) uint64 {
	c := cells(t)
	for _, i := range lfsrCells {
		c[i] = lfsrInv(c[i])
	}
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tweakPermInv[i]]
	}
	return pack(d)
}

// forwardRound applies one forward round with round tweakey tk. Short rounds
// (the first round) omit the diffusion layer.
func forwardRound(is, tk uint64, short bool) uint64 {
	is ^= tk
	if !short {
		is = shuffleCells(is)
		is = mixColumns(is)
	}
	return subCells(is)
}

// backwardRound is the exact inverse of forwardRound.
func backwardRound(is, tk uint64, short bool) uint64 {
	is = subCells(is) // σ1 is an involution
	if !short {
		is = mixColumns(is) // M is an involution
		is = shuffleCellsInv(is)
	}
	return is ^ tk
}

// reflector applies the keyed pseudo-reflector: τ, multiplication by the
// involutory matrix Q = M, key addition, τ⁻¹.
func (c *Cipher) reflector(is uint64) uint64 {
	is = shuffleCells(is)
	is = mixColumns(is)
	is ^= c.k1
	return shuffleCellsInv(is)
}

// referenceEncrypt enciphers p under tweak t one cell at a time.
func (c *Cipher) referenceEncrypt(p, t uint64) uint64 {
	is := p ^ c.w0
	tw := t
	for i := 0; i < c.rounds; i++ {
		is = forwardRound(is, c.k0^tw^roundConst[i], i == 0)
		tw = updateTweak(tw)
	}
	// Central whitening round and reflector.
	is = forwardRound(is, c.w1^tw, false)
	is = c.reflector(is)
	is = backwardRound(is, c.w0^tw, false)
	// Backward rounds replay the forward tweak schedule in reverse, with α
	// folded into the round tweakey.
	for i := c.rounds - 1; i >= 0; i-- {
		tw = updateTweakInv(tw)
		is = backwardRound(is, c.k0^tw^roundConst[i]^alpha, i == 0)
	}
	return is ^ c.w1
}

// reflectorInv is the exact inverse of reflector. Because Q is an
// involution, the inverse differs from the forward reflector only in that
// the key is diffused through Q before being added.
func (c *Cipher) reflectorInv(is uint64) uint64 {
	is = shuffleCells(is)
	is ^= c.k1
	is = mixColumns(is)
	return shuffleCellsInv(is)
}

// referenceDecrypt deciphers the 64-bit ciphertext ct under tweak t. It is
// the explicit inverse circuit of referenceEncrypt; the round-trip tests
// check that it undoes referenceEncrypt for any key, tweak and round count.
func (c *Cipher) referenceDecrypt(ct, t uint64) uint64 {
	// Reconstruct the forward tweak schedule tw_0 .. tw_rounds.
	tws := make([]uint64, c.rounds+1)
	tws[0] = t
	for i := 0; i < c.rounds; i++ {
		tws[i+1] = updateTweak(tws[i])
	}
	is := ct ^ c.w1
	// Invert the backward rounds (they consumed tw_0..tw_{rounds-1} in
	// descending order, so the inverse walks them ascending).
	for i := 0; i < c.rounds; i++ {
		is = forwardRound(is, c.k0^tws[i]^roundConst[i]^alpha, i == 0)
	}
	// Invert the central construction.
	is = forwardRound(is, c.w0^tws[c.rounds], false)
	is = c.reflectorInv(is)
	is = backwardRound(is, c.w1^tws[c.rounds], false)
	// Invert the forward rounds.
	for i := c.rounds - 1; i >= 0; i-- {
		is = backwardRound(is, c.k0^tws[i]^roundConst[i], i == 0)
	}
	return is ^ c.w0
}
