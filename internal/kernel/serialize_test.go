package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/mem"
)

func bootState(t *testing.T, opts Options) *State {
	t.Helper()
	k, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return k.CaptureState()
}

// TestSerializeDeterministic: the wire form is a pure function of the
// state — two captures of identically built machines, and two encodes
// of one capture, produce identical bytes. Content addressing depends
// on this.
func TestSerializeDeterministic(t *testing.T) {
	opts := Options{Config: codegen.ConfigFull(), Seed: 1234}
	a, err := bootState(t, opts).Serialize()
	if err != nil {
		t.Fatal(err)
	}
	st := bootState(t, opts)
	b1, err := st.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := st.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two encodes of one state differ")
	}
	if !bytes.Equal(a, b1) {
		t.Fatal("captures of identically built machines encode differently")
	}
}

// TestSerializeRoundTrip: decode(encode(state)) forks a machine that is
// observably identical to one forked from the original capture,
// including on SMP machines.
func TestSerializeRoundTrip(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		cfg := codegen.ConfigFull()
		cfg.NumCPUs = cpus
		opts := Options{Config: cfg, Seed: 99}
		st := bootState(t, opts)
		blob, err := st.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		pages := make(map[uint64]*[mem.PageSize]byte)
		st.ForEachFrozenPage(func(pn uint64, pg *[mem.PageSize]byte) {
			cp := *pg
			pages[pn] = &cp
		})
		got, err := DeserializeState(blob, pages)
		if err != nil {
			t.Fatalf("cpus=%d: %v", cpus, err)
		}
		// Re-encode: the decoded state must be wire-identical, proving
		// no field was dropped or defaulted on the way through.
		blob2, err := got.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("cpus=%d: re-encoded state differs from original wire form", cpus)
		}
		k1, err := NewFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := NewFromState(got)
		if err != nil {
			t.Fatal(err)
		}
		k1.Run(100_000)
		k2.Run(100_000)
		if k1.CPU.Cycles != k2.CPU.Cycles || k1.CPU.Retired != k2.CPU.Retired ||
			k1.CPU.PC != k2.CPU.PC || k1.UART.Output() != k2.UART.Output() {
			t.Fatalf("cpus=%d: deserialized fork diverges from direct fork", cpus)
		}
	}
}

// TestSerializeRefusesPrograms: a state carrying registered user
// programs is not portable (program images are caller-owned, outside
// the deterministic kernel build) and must be refused with the typed
// sentinel.
func TestSerializeRefusesPrograms(t *testing.T) {
	k, err := New(Options{Config: codegen.ConfigFull(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram("p", func(u *UserASM) { u.Exit(0) })
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.CaptureState().Serialize(); !errors.Is(err, ErrStateNotPortable) {
		t.Fatalf("Serialize with programs = %v, want ErrStateNotPortable", err)
	}
}

// TestDeserializeRejectsGarbage: truncated or corrupted blobs fail
// loudly, never yield a machine.
func TestDeserializeRejectsGarbage(t *testing.T) {
	st := bootState(t, Options{Config: codegen.ConfigBackward(), Seed: 3})
	blob, err := st.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeserializeState(blob[:len(blob)/2], nil); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := DeserializeState([]byte("not a snapshot"), nil); err == nil {
		t.Fatal("garbage blob accepted")
	}
	// Flip one byte of the serialized kernel keys: the rebuilt image's
	// keys no longer match and the blob must be refused.
	bad := append([]byte(nil), blob...)
	bad[len(stateWireMagic)+8+73] ^= 0x40 // inside the options/keys region
	if _, err := DeserializeState(bad, nil); err == nil {
		t.Fatal("bit-flipped blob accepted")
	}
}

// postBootBlobs serializes the post-boot states of a 1- and a 2-vCPU
// full-protection machine, the blobs the store persists.
func postBootBlobs(tb testing.TB) [][]byte {
	var blobs [][]byte
	for _, cpus := range []int{1, 2} {
		cfg := codegen.ConfigFull()
		cfg.NumCPUs = cpus
		k, err := New(Options{Config: cfg, Seed: 17})
		if err != nil {
			tb.Fatal(err)
		}
		if err := k.Boot(); err != nil {
			tb.Fatal(err)
		}
		blob, err := k.CaptureState().Serialize()
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// oversizedTT1 rewrites the tt1.len prefix of a 1-vCPU blob to 2^33
// entries, far more than the bytes after it can hold.
func oversizedTT1(tb testing.TB, blob []byte) []byte {
	e := &wireEnc{}
	e.buf = append(e.buf, stateWireMagic...)
	e.u64(stateWireVersion)
	encodeOptions(e, Options{Config: codegen.ConfigFull()})
	e.buf = append(e.buf, make([]byte, keySetWire+4*8)...) // keys, rng
	e.i64(1)
	encodeCPU(e, cpu.State{})
	e.boolean(false) // mmuOn
	off := len(e.buf)
	if n := binary.LittleEndian.Uint64(blob[off:]); n == 0 || n > uint64(len(blob)) {
		tb.Fatalf("offset %d does not hold the tt1.len prefix (reads %d)", off, n)
	}
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(bad[off:], 1<<33)
	return bad
}

// TestDeserializeRefusesOversizedLength: a length prefix larger than the
// rest of the blob could hold is refused with the typed error before
// anything is allocated for it.
func TestDeserializeRefusesOversizedLength(t *testing.T) {
	bad := oversizedTT1(t, postBootBlobs(t)[0])
	_, err := DeserializeState(bad, nil)
	var de *StateDecodeError
	if !errors.As(err, &de) || de.Field != "tt1.len" {
		t.Fatalf("DeserializeState(tt1.len = 2^33) = %v, want a *StateDecodeError at tt1.len", err)
	}
}

// FuzzDeserializeState: whatever the bytes, DeserializeState returns a
// *StateDecodeError or a State whose wire form decodes again and
// re-encodes to the same bytes. It never panics and never allocates
// from an unchecked count.
func FuzzDeserializeState(f *testing.F) {
	blobs := postBootBlobs(f)
	for _, blob := range blobs {
		f.Add(blob)
	}
	f.Add(oversizedTT1(f, blobs[0]))
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := DeserializeState(blob, nil)
		if err != nil {
			var de *StateDecodeError
			if !errors.As(err, &de) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		once, err := st.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		again, err := DeserializeState(once, nil)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		twice, err := again.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("decoded state re-encodes to different bytes")
		}
	})
}
