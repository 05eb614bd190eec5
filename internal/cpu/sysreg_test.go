package cpu

import (
	"testing"

	"camouflage/internal/insn"
	"camouflage/internal/pac"
)

// TestAllKeyRegistersRoundTrip exercises every PAuth key register pair
// through the MSR/MRS paths and checks the signer bank tracks them.
func TestAllKeyRegistersRoundTrip(t *testing.T) {
	c := New(Features{PAuth: true})
	regs := []struct {
		lo, hi insn.SysReg
		id     pac.KeyID
	}{
		{insn.APIAKeyLo_EL1, insn.APIAKeyHi_EL1, pac.KeyIA},
		{insn.APIBKeyLo_EL1, insn.APIBKeyHi_EL1, pac.KeyIB},
		{insn.APDAKeyLo_EL1, insn.APDAKeyHi_EL1, pac.KeyDA},
		{insn.APDBKeyLo_EL1, insn.APDBKeyHi_EL1, pac.KeyDB},
		{insn.APGAKeyLo_EL1, insn.APGAKeyHi_EL1, pac.KeyGA},
	}
	for i, r := range regs {
		lo := uint64(0x1000 + i)
		hi := uint64(0x2000 + i)
		if err := c.WriteSys(r.lo, lo); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteSys(r.hi, hi); err != nil {
			t.Fatal(err)
		}
		if got := c.Signer.Key(r.id); got.Lo != lo || got.Hi != hi {
			t.Fatalf("%v: signer bank = %+v", r.id, got)
		}
		gotLo, err := c.ReadSys(r.lo)
		if err != nil {
			t.Fatal(err)
		}
		gotHi, err := c.ReadSys(r.hi)
		if err != nil {
			t.Fatal(err)
		}
		if gotLo != lo || gotHi != hi {
			t.Fatalf("%v: MRS = (%#x, %#x)", r.id, gotLo, gotHi)
		}
	}
}

// TestAllNamedSysRegsRoundTrip covers the named system-register file.
func TestAllNamedSysRegsRoundTrip(t *testing.T) {
	c := New(Features{PAuth: true})
	regs := []insn.SysReg{
		insn.SCTLR_EL1, insn.VBAR_EL1, insn.ELR_EL1, insn.SPSR_EL1,
		insn.ESR_EL1, insn.FAR_EL1, insn.TTBR0_EL1, insn.TTBR1_EL1,
		insn.CONTEXTIDR_EL1, insn.TPIDR_EL1, insn.SP_EL0,
	}
	for i, r := range regs {
		v := uint64(0xA0 + i)
		if err := c.WriteSys(r, v); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		got, err := c.ReadSys(r)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if got != v {
			t.Fatalf("%v: read %#x, want %#x", r, got, v)
		}
	}
}

func TestReadOnlyCounters(t *testing.T) {
	c := New(Features{PAuth: true})
	c.Cycles = 1234
	for _, r := range []insn.SysReg{insn.PMCCNTR_EL0, insn.CNTVCT_EL0} {
		v, err := c.ReadSys(r)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1234 {
			t.Fatalf("%v = %d", r, v)
		}
	}
	if v, _ := c.ReadSys(insn.CNTFRQ_EL0); v != ClockHz {
		t.Fatalf("CNTFRQ = %d", v)
	}
}

func TestUnknownSysRegErrors(t *testing.T) {
	c := New(Features{PAuth: true})
	bogus := insn.SysReg(0x7FFF)
	if err := c.WriteSys(bogus, 1); err == nil {
		t.Fatal("write to unknown sysreg accepted")
	}
	if _, err := c.ReadSys(bogus); err == nil {
		t.Fatal("read of unknown sysreg accepted")
	}
}

// TestKeyAccessWithoutPAuthErrors: on an ARMv8.0 core the key registers
// are undefined, and a write fails before the MSR hook sees it.
func TestKeyAccessWithoutPAuthErrors(t *testing.T) {
	c := New(Features{PAuth: false})
	hooked := 0
	c.OnMSR = func(insn.SysReg, uint64) bool {
		hooked++
		return false
	}
	if err := c.WriteSys(insn.APIAKeyLo_EL1, 1); err == nil {
		t.Fatal("key write accepted on v8.0")
	}
	if hooked != 0 {
		t.Fatalf("MSR hook called %d times for an undefined key write", hooked)
	}
	if _, err := c.ReadSys(insn.APIAKeyLo_EL1); err == nil {
		t.Fatal("key read accepted on v8.0")
	}
}

// TestPAuthEnableBitsGateEachKey checks each SCTLR enable bit
// independently gates its key's instructions.
func TestPAuthEnableBitsGateEachKey(t *testing.T) {
	cases := []struct {
		bit  uint64
		id   pac.KeyID
		sign func(*CPU, uint64, uint64) uint64
	}{
		{insn.SCTLREnIA, pac.KeyIA, func(c *CPU, v, m uint64) uint64 {
			c.X[0], c.X[1] = v, m
			c.pacSign(insn.X0, insn.X1, pac.KeyIA)
			return c.X[0]
		}},
		{insn.SCTLREnIB, pac.KeyIB, func(c *CPU, v, m uint64) uint64 {
			c.X[0], c.X[1] = v, m
			c.pacSign(insn.X0, insn.X1, pac.KeyIB)
			return c.X[0]
		}},
		{insn.SCTLREnDA, pac.KeyDA, func(c *CPU, v, m uint64) uint64 {
			c.X[0], c.X[1] = v, m
			c.pacSign(insn.X0, insn.X1, pac.KeyDA)
			return c.X[0]
		}},
		{insn.SCTLREnDB, pac.KeyDB, func(c *CPU, v, m uint64) uint64 {
			c.X[0], c.X[1] = v, m
			c.pacSign(insn.X0, insn.X1, pac.KeyDB)
			return c.X[0]
		}},
	}
	ptr := uint64(pac.KernelBase) | 0x4000
	for _, tc := range cases {
		c := New(Features{PAuth: true})
		c.Signer.SetKey(tc.id, pac.Key{Hi: 9, Lo: 9})
		c.SCTLR = 0 // disabled: sign is a NOP
		if got := tc.sign(c, ptr, 7); got != ptr {
			t.Errorf("%v: sign modified pointer with enable bit clear", tc.id)
		}
		c.SCTLR = tc.bit // enabled: sign inserts a PAC
		if got := tc.sign(c, ptr, 7); got == ptr {
			t.Errorf("%v: sign was a NOP with enable bit set", tc.id)
		}
	}
}

// TestGAKeyHasNoEnableBit: PACGA works regardless of SCTLR (no EnGA
// exists in the architecture).
func TestGAKeyHasNoEnableBit(t *testing.T) {
	c := New(Features{PAuth: true})
	c.SCTLR = 0
	if !c.pauthEnabled(pac.KeyGA) {
		t.Fatal("GA gated by SCTLR; the architecture has no such bit")
	}
}
