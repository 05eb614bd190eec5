package analysis

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"camouflage/internal/insn"
)

// bytesOf renders instruction words little-endian, the layout ScanBytes
// consumes.
func bytesOf(ws []uint32) []byte {
	b := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// TestScannerBoundaryWords places a key read in the very first and the
// very last word of an image: off-by-one loops lose exactly these.
func TestScannerBoundaryWords(t *testing.T) {
	steal := insn.MRS(insn.X0, insn.APIAKeyLo_EL1)

	first := words(steal, insn.NOP(), insn.RET())
	fs := ScanWords(first)
	if len(fs) != 1 || fs[0].Offset != 0 {
		t.Fatalf("first-word finding = %+v, want one at +0x0", fs)
	}

	last := words(insn.NOP(), insn.RET(), steal)
	fs = ScanWords(last)
	wantOff := uint64(2 * insn.Size)
	if len(fs) != 1 || fs[0].Offset != wantOff {
		t.Fatalf("last-word finding = %+v, want one at +%#x", fs, wantOff)
	}

	alone := words(steal)
	if fs = ScanWords(alone); len(fs) != 1 || fs[0].Offset != 0 {
		t.Fatalf("single-word image finding = %+v", fs)
	}
}

// TestScannerEmptyImages: nothing to scan is a clean verdict, not a
// crash and not a rejection.
func TestScannerEmptyImages(t *testing.T) {
	if fs := ScanWords(nil); len(fs) != 0 {
		t.Fatalf("ScanWords(nil) = %+v", fs)
	}
	if fs := ScanWords([]uint32{}); len(fs) != 0 {
		t.Fatalf("ScanWords(empty) = %+v", fs)
	}
	if fs := ScanBytes(nil); len(fs) != 0 {
		t.Fatalf("ScanBytes(nil) = %+v", fs)
	}
	if err := VerifyModuleText(nil); err != nil {
		t.Fatalf("VerifyModuleText(nil) = %v", err)
	}
	if err := AllowedKeyWriters(nil, 0, 0); err != nil {
		t.Fatalf("AllowedKeyWriters(empty) = %v", err)
	}
	// Sub-word fragments can never be fetched; they scan clean.
	for n := 1; n < 4; n++ {
		if fs := ScanBytes(make([]byte, n)); len(fs) != 0 {
			t.Fatalf("%d-byte fragment = %+v", n, fs)
		}
	}
}

// TestScannerUnknownWords feeds undecodable and data words: the scanner
// must pass over them without findings or panics (a module's constant
// pool is not code it can reject).
func TestScannerUnknownWords(t *testing.T) {
	ws := []uint32{
		0x0000_0000,             // all zeroes
		0xFFFF_FFFF,             // all ones
		0xDEAD_BEEF,             // arbitrary data
		0xD503_0000,             // system-op neighborhood, not MRS/MSR
		insn.NOP().Encode() ^ 1, // single-bit-flipped NOP
	}
	if fs := ScanWords(ws); len(fs) != 0 {
		t.Fatalf("unknown words flagged: %+v", fs)
	}
	// A key read surrounded by garbage is still found at the right
	// offset.
	ws = append(ws, insn.MRS(insn.X9, insn.APDBKeyHi_EL1).Encode())
	fs := ScanWords(ws)
	if len(fs) != 1 || fs[0].Offset != uint64(5*insn.Size) {
		t.Fatalf("finding in garbage = %+v, want one at +%#x", fs, 5*insn.Size)
	}
}

// TestScannerAllKeyRegistersReadAndWrite is the table-driven pass over
// every PAuth key register, in both directions: an MRS from any of the
// ten is a key read, an MSR to any of the ten is a key write.
func TestScannerAllKeyRegistersReadAndWrite(t *testing.T) {
	for _, reg := range insn.PAuthKeyRegs {
		reg := reg
		t.Run(reg.String(), func(t *testing.T) {
			read := ScanWords(words(insn.MRS(insn.X2, reg)))
			if len(read) != 1 || read[0].Kind != FindingKeyRead {
				t.Errorf("MRS x2, %s: findings = %+v, want one FindingKeyRead", reg, read)
			}
			write := ScanWords(words(insn.MSR(reg, insn.X2)))
			if len(write) != 1 || write[0].Kind != FindingKeyWrite {
				t.Errorf("MSR %s, x2: findings = %+v, want one FindingKeyWrite", reg, write)
			}
			if err := VerifyModuleText(bytesOf(words(insn.MRS(insn.X2, reg)))); err == nil {
				t.Errorf("module reading %s passed verification", reg)
			}
			if err := VerifyModuleText(bytesOf(words(insn.MSR(reg, insn.X2)))); err == nil {
				t.Errorf("module writing %s passed verification", reg)
			}
		})
	}
}

// TestAllowedKeyWritersBoundaries pins the half-open [start, end) window
// of the kernel-image key-setter allowance.
func TestAllowedKeyWritersBoundaries(t *testing.T) {
	ws := words(
		insn.NOP(),                            // +0x0
		insn.MSR(insn.APIAKeyLo_EL1, insn.X0), // +0x4
		insn.RET(),                            // +0x8
	)
	text := bytesOf(ws)
	// Window exactly covering the write.
	if err := AllowedKeyWriters(text, 4, 8); err != nil {
		t.Fatalf("write inside [4,8) rejected: %v", err)
	}
	// The end bound is exclusive: a window ending at the write's offset
	// does not contain it.
	if err := AllowedKeyWriters(text, 0, 4); err == nil {
		t.Fatal("write at the exclusive end bound was allowed")
	}
	// The start bound is inclusive.
	if err := AllowedKeyWriters(text, 5, 12); err == nil {
		t.Fatal("write before the start bound was allowed")
	}
	// Key reads are never allowed, even inside the setter window.
	read := bytesOf(words(insn.MRS(insn.X0, insn.APIAKeyLo_EL1)))
	if err := AllowedKeyWriters(read, 0, 4); err == nil {
		t.Fatal("key read inside the setter window was allowed")
	}
}

// FuzzVerifyModuleText feeds arbitrary module text to the module-load
// gate: no panic, and the verdict follows from insn.Decode alone. The
// text is accepted exactly when none of its aligned little-endian words
// decodes to a banned form (an MRS of a PAuth key register, an MSR to
// SCTLR_EL1 or to a key register); a trailing fragment is ignored. A
// rejection names every banned word at its offset, in order.
func FuzzVerifyModuleText(f *testing.F) {
	f.Add(bytesOf(words(insn.NOP(), insn.ADDi(insn.X0, insn.X1, 8), insn.RET())))
	f.Add(bytesOf(words(insn.NOP(), insn.MRS(insn.X0, insn.APIBKeyLo_EL1), insn.RET())))
	f.Add(bytesOf(words(insn.MSR(insn.SCTLR_EL1, insn.X1), insn.MSR(insn.APDAKeyHi_EL1, insn.X2))))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x20, 0x03})
	banned := func(ins insn.Instr) bool {
		key := false
		for _, r := range insn.PAuthKeyRegs {
			key = key || ins.Sys == r
		}
		switch ins.Op {
		case insn.OpMRS:
			return key
		case insn.OpMSR:
			return key || ins.Sys == insn.SCTLR_EL1
		}
		return false
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		var want []string
		for off := 0; off+4 <= len(text); off += 4 {
			ins := insn.Decode(binary.LittleEndian.Uint32(text[off:]))
			if banned(ins) {
				want = append(want, fmt.Sprintf(" at +%#x: %s", off, ins))
			}
		}
		err := VerifyModuleText(text)
		if len(want) == 0 {
			if err != nil {
				t.Fatalf("text with no banned word rejected: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("text with %d banned words accepted", len(want))
		}
		lines := strings.Split(err.Error(), "\n")
		if lines[0] != "analysis: module rejected:" || len(lines) != 1+len(want) {
			t.Fatalf("rejection names %d findings, want %d:\n%v", len(lines)-1, len(want), err)
		}
		for i, w := range want {
			if l := lines[1+i]; !strings.HasPrefix(l, "  ") || !strings.HasSuffix(l, w) {
				t.Fatalf("finding %d reads %q, want one ending %q", i, l, w)
			}
		}
	})
}
