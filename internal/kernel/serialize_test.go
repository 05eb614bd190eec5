package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/pac"
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

// frozenPages copies the state's frozen RAM, as the store reads it back
// from a snapshot file.
func frozenPages(st *State) map[uint64]*[mem.PageSize]byte {
	pages := make(map[uint64]*[mem.PageSize]byte)
	st.ForEachFrozenPage(func(pn uint64, pg *[mem.PageSize]byte) {
		cp := *pg
		pages[pn] = &cp
	})
	return pages
}

// TestSerializeDeterministic: the wire form is a pure function of the
// state — two captures of identically built machines, and two encodes
// of one capture, produce identical bytes. A re-save of a key writes
// the same file, and the same content digest, because of this.
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
		got, err := DeserializeState(blob, frozenPages(st))
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

// TestSerializeRefusesRunningState: the wire form holds what a booted
// machine holds, so Serialize refuses each thing only a running machine
// holds, with ErrStateNotPortable naming it: set alone on a booted
// state, and as running machines leave it (a spawned task whose
// programs are cleared; a uniprocessor's idle run, which leaves an oops
// record and a service count). Registered programs are refused in
// TestSerializeRefusesPrograms, a loaded module's driver ops in
// internal/module's TestLoadedModuleNotPortable.
func TestSerializeRefusesRunningState(t *testing.T) {
	booted := bootState(t, Options{Config: codegen.ConfigFull(), Seed: 5})
	kinds := []struct {
		what string
		set  func(st *State)
	}{
		{"tasks", func(st *State) { st.tasks = map[int]Task{1: {PID: 1}} }},
		{"current tasks", func(st *State) { st.currents = []*Task{{PID: 1}} }},
		{"user page tables", func(st *State) { st.tables = map[int]*mmu.Table{1: mmu.NewTable()} }},
		{"pipes", func(st *State) { st.pipes = map[uint64][]byte{1: nil} }},
		{"open files", func(st *State) { st.files = map[uint64]fileState{UserDataBase: {}} }},
		{"driver ops", func(st *State) { st.extraOps = map[int]uint64{90: ModuleBase} }},
		{"oops records", func(st *State) { st.oops = []OopsRecord{{PID: 1}} }},
		{"service-call counts", func(st *State) { st.svcCalls[SvcOpen] = 1 }},
		{"UART output", func(st *State) { st.uart = []byte("!") }},
		{"NIC state", func(st *State) {
			n := &mem.NetDev{}
			n.InjectPacket([]byte("pkt"))
			st.net = n.CaptureState()
		}},
		{"block-device state", func(st *State) {
			b := mem.NewBlockDev()
			b.WriteSector(0, []byte("sector"))
			st.blk = b.CaptureState()
		}},
	}
	refused := func(name, what string, st *State) {
		t.Helper()
		_, err := st.Serialize()
		if !errors.Is(err, ErrStateNotPortable) || !strings.Contains(err.Error(), "holds "+what) {
			t.Errorf("%s: Serialize = %v, want ErrStateNotPortable naming %s", name, err, what)
		}
	}
	for _, c := range kinds {
		st := *booted
		c.set(&st)
		refused(c.what, c.what, &st)
	}
	if _, err := booted.Serialize(); err != nil {
		t.Fatalf("booted state: %v", err)
	}

	k := bootSMP(t, 1, 5)
	prog, err := BuildProgram("p", func(u *UserASM) { u.Exit(0) })
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	st := k.CaptureState()
	st.programs = nil
	refused("spawned task, programs cleared", "tasks", st)

	idle := bootSMP(t, 1, 5)
	if stop := idle.Run(500_000_000); stop.Kind != cpu.StopHLT || len(idle.Oops) == 0 || idle.ServiceCalls == [SvcMax]uint64{} {
		t.Fatalf("idle run stopped with %+v, %d oops records, service counts %v: want a HLT, an oops and a count",
			stop, len(idle.Oops), idle.ServiceCalls)
	}
	refused("uniprocessor idle run", "oops records", idle.CaptureState())
}

// TestEveryBuildPersists: every build's post-boot state serializes,
// decodes and re-encodes to the same bytes — at each protection level,
// the compat build and the zero-modifier build, at 0 (the uniprocessor
// default), 1, 2, 3 and 8 vCPUs, under two seeds. It fails when a boot
// path leaves a task, a device queue or a service count behind: the
// store could no longer persist that build, and every restart would
// boot it again.
func TestEveryBuildPersists(t *testing.T) {
	zeroMod := codegen.ConfigFull()
	zeroMod.ZeroModifier = true
	builds := map[string]*codegen.Config{
		"none":          codegen.ConfigNone(),
		"backward-edge": codegen.ConfigBackward(),
		"full":          codegen.ConfigFull(),
		"compat":        {Scheme: codegen.SchemeCamouflageCompat},
		"full-zero-mod": zeroMod,
	}
	for name, base := range builds {
		for _, cpus := range []int{0, 1, 2, 3, MaxCPUs} {
			for _, seed := range []uint64{1, 0xC0FFEE} {
				cfg := *base
				cfg.NumCPUs = cpus
				st := bootState(t, Options{Config: &cfg, Seed: seed})
				blob, err := st.Serialize()
				if err != nil {
					t.Errorf("%s, %d vCPUs, seed %#x: %v", name, cpus, seed, err)
					continue
				}
				got, err := DeserializeState(blob, frozenPages(st))
				if err != nil {
					t.Errorf("%s, %d vCPUs, seed %#x: %v", name, cpus, seed, err)
					continue
				}
				again, err := got.Serialize()
				if err != nil || !bytes.Equal(again, blob) {
					t.Errorf("%s, %d vCPUs, seed %#x: decoded state re-encodes differently (%v)", name, cpus, seed, err)
				}
			}
		}
	}
}

// TestDeserializeRejectsGarbage: truncated or corrupted blobs fail
// loudly, never yield a machine, and say why in the terms an operator
// reads: the field and offset decoding stopped at, or the cause of a
// failed rebuild.
func TestDeserializeRejectsGarbage(t *testing.T) {
	st := bootState(t, Options{Config: codegen.ConfigBackward(), Seed: 3})
	blob, err := st.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeserializeState(blob[:len(blob)/2], nil); err == nil {
		t.Fatal("truncated blob accepted")
	}
	// One byte short: the last field, bootCycles, is cut.
	_, err = DeserializeState(blob[:len(blob)-1], nil)
	want := fmt.Sprintf("kernel: bad state blob at bootCycles (offset %d): truncated (%d bytes)", len(blob)-8, len(blob)-1)
	if err == nil || err.Error() != want {
		t.Fatalf("blob one byte short: %v, want %q", err, want)
	}
	// A blob of the previous wire version names the version it holds.
	old := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(old[len(stateWireMagic):], stateWireVersion-1)
	_, err = DeserializeState(old, nil)
	want = fmt.Sprintf("kernel: bad state blob at version (offset %d): version %d, want %d",
		len(stateWireMagic)+8, stateWireVersion-1, stateWireVersion)
	if err == nil || err.Error() != want {
		t.Fatalf("previous wire version: %v, want %q", err, want)
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
	// A failed rebuild carries its cause, and callers reach it through
	// the store's wrapping. No blob of decodable options fails to
	// rebuild, so the error is made as DeserializeState makes it.
	cause := &os.PathError{Op: "link", Path: ".text", Err: os.ErrInvalid}
	err = fmt.Errorf("store: snapshot 0123: %w",
		&StateDecodeError{Msg: "rebuild image from snapshot options", Err: cause})
	var de *StateDecodeError
	var pe *os.PathError
	if !errors.As(err, &de) || !errors.Is(err, os.ErrInvalid) || !errors.As(err, &pe) || pe != cause {
		t.Fatalf("rebuild failure %v does not unwrap to its cause", err)
	}
	if want := "kernel: bad state blob: rebuild image from snapshot options: " + cause.Error(); de.Error() != want {
		t.Fatalf("rebuild failure reads %q, want %q", de.Error(), want)
	}
}

// TestDeserializeChecksCompatBytes: the compat and v80 option bytes are
// the scheme's (Options.V80). The compat build's blob decodes; a blob
// whose bytes disagree with its scheme is refused with the typed error.
func TestDeserializeChecksCompatBytes(t *testing.T) {
	compat := &codegen.Config{Scheme: codegen.SchemeCamouflageCompat}
	booted := bootState(t, Options{Config: compat, Seed: 3})
	blob, err := booted.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if st, err := DeserializeState(blob, frozenPages(booted)); err != nil || !st.Options().V80() {
		t.Fatalf("compat blob: err %v", err)
	}
	e := &wireEnc{}
	e.buf = append(e.buf, stateWireMagic...)
	e.u64(stateWireVersion)
	encodeOptions(e, Options{Config: compat})
	v80 := len(e.buf) - 8 - 1 // the compat and v80 bytes precede the threshold
	for _, off := range []int{v80 - 1, v80} {
		bad := append([]byte(nil), blob...)
		bad[off] = 0
		_, err := DeserializeState(bad, nil)
		var de *StateDecodeError
		if !errors.As(err, &de) || de.Field != "options.v80" {
			t.Errorf("byte %d cleared: %v, want a *StateDecodeError at options.v80", off, err)
		}
	}
}

// postBootBlobs serializes the post-boot states of a 1- and a 2-vCPU
// full-protection machine, the blobs the store persists, and returns
// each with its frozen RAM.
func postBootBlobs(tb testing.TB) ([][]byte, []map[uint64]*[mem.PageSize]byte) {
	var blobs [][]byte
	var pages []map[uint64]*[mem.PageSize]byte
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
		st := k.CaptureState()
		blob, err := st.Serialize()
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
		pages = append(pages, frozenPages(st))
	}
	return blobs, pages
}

// oversizedTT1 rewrites the tt1.len prefix of a 1-vCPU blob to 2^33
// entries, far more than the bytes after it can hold.
func oversizedTT1(tb testing.TB, blob []byte) []byte {
	e := &wireEnc{}
	e.buf = append(e.buf, stateWireMagic...)
	e.u64(stateWireVersion)
	encodeOptions(e, Options{Config: codegen.ConfigFull()})
	e.keys(pac.KeySet{})
	e.buf = append(e.buf, make([]byte, 4*8)...) // rng
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
	blobs, _ := postBootBlobs(t)
	bad := oversizedTT1(t, blobs[0])
	_, err := DeserializeState(bad, nil)
	var de *StateDecodeError
	if !errors.As(err, &de) || de.Field != "tt1.len" {
		t.Fatalf("DeserializeState(tt1.len = 2^33) = %v, want a *StateDecodeError at tt1.len", err)
	}
}

// FuzzDeserializeState: whatever the bytes, DeserializeState returns a
// *StateDecodeError or a State whose wire form decodes again and
// re-encodes to the same bytes. It never panics and never allocates
// from an unchecked count. Each input is decoded with the frozen RAM of
// each seed machine in turn, so a blob of a seed's build decodes with
// that seed's pages.
func FuzzDeserializeState(f *testing.F) {
	blobs, seedPages := postBootBlobs(f)
	for _, blob := range blobs {
		f.Add(blob)
	}
	f.Add(oversizedTT1(f, blobs[0]))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var st *State
		var err error
		var pages map[uint64]*[mem.PageSize]byte
		for _, pages = range seedPages {
			if st, err = DeserializeState(blob, pages); err == nil {
				break
			}
		}
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
		again, err := DeserializeState(once, pages)
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
