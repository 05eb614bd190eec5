package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"camouflage/internal/attack"
	"camouflage/internal/codegen"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/mem"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
)

func testKey(seed uint64, cpus int) snapshot.Key {
	cfg := codegen.ConfigFull()
	cfg.NumCPUs = cpus
	return snapshot.KeyFor(kernel.Options{Config: cfg, Seed: seed})
}

// otherKey names a configuration no test saves: the tampers that move
// a file to another key's name move it to this one's.
var otherKey = testKey(199, 1)

func bootSnap(t testing.TB, key snapshot.Key) *snapshot.Snapshot {
	t.Helper()
	k, err := snapshot.BootOptions(key.Options)()
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Take(k)
}

// fingerprint runs a syscall-heavy program on a fork and returns its
// observable outcome, UART bytes included.
type fingerprint struct {
	Cycles, Retired uint64
	Halted          bool
	UART            string
}

func runFixture(t *testing.T, k *kernel.Kernel) fingerprint {
	t.Helper()
	prog, err := kernel.BuildProgram("fixture", func(u *kernel.UserASM) {
		u.Syscall(kernel.SysOpenat, 0, kernel.PathDevZero, 0)
		u.A.I(insn.ORRr(insn.X20, insn.XZR, insn.X0, 0))
		u.CounterLoop("loop", insn.X21, 16, func() {
			u.A.I(insn.ORRr(insn.X0, insn.XZR, insn.X20, 0))
			u.MovImm(insn.X1, kernel.UserDataBase)
			u.MovImm(insn.X2, 64)
			u.SyscallReg(kernel.SysRead)
			u.SyscallReg(kernel.SysGetppid)
		})
		u.SyscallReg(kernel.SysClose)
		u.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterProgram(1, prog)
	if _, err := k.Spawn(1); err != nil {
		t.Fatal(err)
	}
	k.Run(10_000_000)
	return fingerprint{Cycles: k.CPU.Cycles, Retired: k.CPU.Retired, Halted: k.Halted, UART: k.UART.Output()}
}

// TestSaveLoadRoundTrip: a snapshot saved, then loaded by a *different*
// store handle (fresh process analogue), forks a machine byte-identical
// to one forked from the original capture — on uniprocessor and 2-vCPU
// machines alike.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		dir := t.TempDir()
		key := testKey(101, cpus)
		snap := bootSnap(t, key)

		s1, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := s1.Save(key, snap)
		if err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded, gotDigest, err := s2.Load(key)
		if err != nil {
			t.Fatalf("cpus=%d: %v", cpus, err)
		}
		if gotDigest != digest {
			t.Fatalf("load digest %s, saved %s", gotDigest, digest)
		}

		kFresh, err := snap.Fork()
		if err != nil {
			t.Fatal(err)
		}
		kLoaded, err := loaded.Fork()
		if err != nil {
			t.Fatal(err)
		}
		want := runFixture(t, kFresh)
		got := runFixture(t, kLoaded)
		if got != want {
			t.Fatalf("cpus=%d: fork from loaded snapshot diverges:\n loaded: %+v\n fresh:  %+v", cpus, got, want)
		}
	}
}

// TestSaveNamesFileByKey: saving the same configuration twice, from
// two boots, yields the same content digest and leaves one file, named
// by the key digest and holding a version 3 header that names it.
func TestSaveNamesFileByKey(t *testing.T) {
	dir := t.TempDir()
	key := testKey(102, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("identical snapshots got digests %s and %s", d1, d2)
	}
	files, err := filepath.Glob(filepath.Join(dir, "snapshots", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != key.Digest+".snap" {
		t.Fatalf("store holds %v, want only %s.snap", files, key.Digest)
	}
	if _, _, m, _ := snapFile(t, dir, key.Digest); m.Version != 3 || m.KeyDigest != key.Digest || m.Key != key.Norm() || m.Digest != d1 {
		t.Fatalf("header %+v, want version 3 naming key %s (%s) with digest %s", m, key.Digest, key.Norm(), d1)
	}
}

// snapFile returns the path of the snapshot file of the key digest in
// the store at dir, its bytes, its header and the header's length,
// newline included.
func snapFile(t testing.TB, dir, key string) (string, []byte, *Manifest, int) {
	t.Helper()
	path := filepath.Join(dir, "snapshots", key+".snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, n, err := decodeHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return path, raw, m, n
}

// encodeFile is a snapshot file holding header m and body, as Save
// writes one.
func encodeFile(t testing.TB, m *Manifest, body []byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(hdr, '\n'), body...)
}

// tampers each return an edited copy of a snapshot file (raw, with
// header m of length n) and the part of it Load must name as corrupt,
// or "" for a file whose content verifies and whose state the kernel
// refuses. A tamper marked moved is written under otherKey's name, and
// that key is loaded.
var tampers = []struct {
	name  string
	edit  func(t testing.TB, raw []byte, m *Manifest, n int) []byte
	part  string
	moved bool
}{
	{"edited manifest", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		e := *m
		e.BootCycles++
		return encodeFile(t, &e, raw[n:])
	}, "content", false},
	{"bit-flipped state", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		raw[n+m.StateSize/2] ^= 0x01
		return raw
	}, "content", false},
	{"bit-flipped page", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		raw[n+m.StateSize+mem.PageSize/2] ^= 0x80
		return raw
	}, "content", false},
	{"truncated body", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		return raw[:n+m.StateSize+mem.PageSize/2]
	}, "length", false},
	{"header claims extra page", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		e := *m
		e.Pages = append(append([]uint64(nil), m.Pages...), m.Pages[len(m.Pages)-1]+1)
		return encodeFile(t, &e, raw[n:])
	}, "length", false},
	// A key-reading instruction patched into the kernel text, the file
	// re-stamped with the digest its header commits to: the content
	// verifies, and only the comparison with the rebuilt image refuses
	// it.
	{"patched kernel text", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		i := slices.Index(m.Pages, kernel.KVAToPA(kernel.TextBase)/mem.PageSize)
		if i < 0 {
			t.Fatal("the snapshot file holds no kernel text page")
		}
		off := n + m.StateSize + i*mem.PageSize + 0x40
		binary.LittleEndian.PutUint32(raw[off:], insn.MRS(insn.X0, insn.APIAKeyLo_EL1).Encode())
		e := *m
		e.Digest = e.contentDigest(raw[n:])
		return encodeFile(t, &e, raw[n:])
	}, "", false},
	{"file copied under another key's name", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		return raw
	}, "header", true},
	// A header re-stamped to name another key: the file verifies, and
	// only the options in its state record tell it apart.
	{"header re-stamped under another key", func(t testing.TB, raw []byte, m *Manifest, n int) []byte {
		e := *m
		e.KeyDigest, e.Key = otherKey.Digest, otherKey.Norm()
		e.Digest = e.contentDigest(raw[n:])
		return encodeFile(t, &e, raw[n:])
	}, "options", true},
}

// TestTamperedSnapshotRejected: editing a header field, flipping a bit
// of the state record or of a page, truncating the body, a header
// claiming more pages than the body holds, or a file copied under
// another key's name must each surface as a *VerifyError naming the
// part — never a served machine. Its message names the part, what was
// wanted and what the file holds. Patched kernel text under a content
// digest that matches surfaces as the kernel's *StateDecodeError naming
// the page, and a header re-stamped to name another key as a mismatch
// of the state's options. Each refusal counts as one verify failure. A
// torn header line is refused the same way, quoting the parse error,
// which unwraps to the JSON decoder's.
func TestTamperedSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(103, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(key, bootSnap(t, key)); err != nil {
		t.Fatal(err)
	}
	path, orig, m, n := snapFile(t, dir, key.Digest)

	for _, c := range tampers {
		t.Run(c.name, func(t *testing.T) {
			bad := c.edit(t, append([]byte(nil), orig...), m, n)
			badKey, badPath := key, path
			if c.moved {
				badKey = otherKey
				badPath = filepath.Join(dir, "snapshots", otherKey.Digest+".snap")
			}
			if err := os.WriteFile(badPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				os.Remove(filepath.Join(dir, "snapshots", otherKey.Digest+".snap"))
				os.WriteFile(path, orig, 0o644)
			}()
			fails := obs.CounterTotal(obs.CStoreVerifyFail)
			snap, _, err := s.Load(badKey)
			if f := obs.CounterTotal(obs.CStoreVerifyFail) - fails; f != 1 {
				t.Fatalf("refused load counted %d verify failures, want 1", f)
			}
			if c.part == "" {
				var de *kernel.StateDecodeError
				if !errors.As(err, &de) {
					t.Fatalf("Load = %v, %v, want *kernel.StateDecodeError", snap, err)
				}
				want := fmt.Sprintf("store: snapshot %s: kernel: bad state blob: .text page at PA %#x differs from the image rebuilt from its options",
					key.Digest[:12], kernel.KVAToPA(kernel.TextBase))
				if msg := err.Error(); msg != want {
					t.Fatalf("Load error reads %q, want %q", msg, want)
				}
				return
			}
			var ve *VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("Load = %v, %v, want *VerifyError", snap, err)
			}
			if ve.Part != c.part || ve.Want == ve.Got {
				t.Fatalf("VerifyError %+v, want part %q with want != got", ve, c.part)
			}
			want := fmt.Sprintf("store: snapshot %s: %s mismatch: want %s, file holds %s", badKey.Digest[:12], ve.Part, ve.Want, ve.Got)
			if msg := err.Error(); msg != want {
				t.Fatalf("Load error reads %q, want %q", msg, want)
			}
		})
	}

	torn := append([]byte("{torn\n"), orig[n:]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Load(key)
	var ve *VerifyError
	if !errors.As(err, &ve) || ve.Part != "header" || ve.Want != "a JSON header line" || !strings.Contains(ve.Got, "invalid character") {
		t.Fatalf("Load of a torn header = %v, want a header mismatch quoting the parse error", err)
	}
	_, _, herr := decodeHeader(bytes.NewReader(torn))
	var syntax *json.SyntaxError
	if herr == nil || herr.Error() != ve.Got || !errors.As(herr, &syntax) {
		t.Fatalf("torn header decodes to %v, want the JSON syntax error %q", herr, ve.Got)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	// Untampered store still loads fine afterwards.
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.Load(key); err != nil {
		t.Fatalf("pristine snapshot refused after tamper tests: %v", err)
	}
}

// TestVerifyErrorIsTyped: a bit-flip produces *VerifyError specifically
// (clients and the daemon branch on it), naming the corrupt part, and
// counts as one verification failure, not a load.
func TestVerifyErrorIsTyped(t *testing.T) {
	dir := t.TempDir()
	key := testKey(104, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}
	path, raw, m, n := snapFile(t, dir, key.Digest)
	raw[n+m.StateSize] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hits, fails := obs.CounterTotal(obs.CStoreHit), obs.CounterTotal(obs.CStoreVerifyFail)
	_, _, err = fresh.Load(key)
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("Load after bit flip = %v, want *VerifyError", err)
	}
	if ve.Part != "content" || ve.Want != digest || ve.Want == ve.Got {
		t.Fatalf("VerifyError %+v, want a content mismatch against %s", ve, digest)
	}
	if h, f := obs.CounterTotal(obs.CStoreHit)-hits, obs.CounterTotal(obs.CStoreVerifyFail)-fails; h != 0 || f != 1 {
		t.Fatalf("refused load counted %d hits / %d verify failures, want 0 / 1", h, f)
	}
}

// TestPoolCoalescesConcurrentLoads: the store keeps no load memo, so
// the pool's arming is where loads coalesce. Eight concurrent Acquires
// of a cold key on a store-backed pool cost one physical load and no
// boot, and every machine is a fork of the one loaded snapshot.
func TestPoolCoalescesConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	key := testKey(105, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(key, bootSnap(t, key)); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := snapshot.NewPool()
	p.Store = fresh
	hits, boots, forks := obs.CounterTotal(obs.CStoreHit), obs.CounterTotal(obs.CPoolBoot), obs.CounterTotal(obs.CPoolMiss)

	const n = 8
	ms := make([]*snapshot.Machine, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := p.Acquire(key, func() (*kernel.Kernel, error) {
				return nil, errors.New("boot closure ran despite populated store")
			})
			if err != nil {
				t.Error(err)
				return
			}
			ms[i] = m
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := obs.CounterTotal(obs.CStoreHit) - hits; got != 1 {
		t.Fatalf("%d concurrent acquires loaded from the store %d times, want 1", n, got)
	}
	if got := obs.CounterTotal(obs.CPoolBoot) - boots; got != 0 {
		t.Fatalf("%d concurrent acquires paid %d boots, want 0", n, got)
	}
	for i, m := range ms {
		if m.Snap != ms[0].Snap {
			t.Fatalf("machine %d descends from another snapshot", i)
		}
	}
	if got := obs.CounterTotal(obs.CPoolMiss) - forks; got != n {
		t.Fatalf("loaded snapshot served %d forks, want %d", got, n)
	}
}

// TestPoolWarmStart: a store-backed pool in a fresh process arms its
// keys from disk with zero boots, and the machines it serves are
// byte-identical to boot-path machines.
func TestPoolWarmStart(t *testing.T) {
	dir := t.TempDir()
	key := testKey(106, 2)

	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := snapshot.NewPool()
	p1.Store = st1
	before := p1.Stats()
	m1, err := p1.Acquire(key, snapshot.BootOptions(key.Options))
	if err != nil {
		t.Fatal(err)
	}
	want := runFixture(t, m1.K)
	p1.WaitPersist()
	s1 := p1.Stats()
	boots, persists := s1.Boots-before.Boots, s1.StorePersists-before.StorePersists
	if boots != 1 || persists != 1 {
		t.Fatalf("cold pool: %d boots / %d persists, want 1 boot / 1 persist", boots, persists)
	}

	// "Restart": fresh pool, fresh store handle, same directory.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2 := snapshot.NewPool()
	p2.Store = st2
	before = p2.Stats()
	m2, err := p2.Acquire(key, func() (*kernel.Kernel, error) {
		t.Error("boot closure ran despite populated store")
		return snapshot.BootOptions(key.Options)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runFixture(t, m2.K); got != want {
		t.Fatalf("warm-started machine diverges:\n warm: %+v\n cold: %+v", got, want)
	}
	s2 := p2.Stats()
	boots, loads := s2.Boots-before.Boots, s2.StoreLoads-before.StoreLoads
	if boots != 0 || loads != 1 {
		t.Fatalf("warm pool: %d boots / %d store loads, want 0 boots / 1 store load", boots, loads)
	}
}

// TestCampaignParityWarmStart: a full differential attack campaign
// (2-vCPU cells, cross-core scenario included) run entirely from
// store-loaded snapshots produces a byte-identical report to one run
// from fresh boots — and pays zero boots doing it.
func TestCampaignParityWarmStart(t *testing.T) {
	dir := t.TempDir()
	campaign := attack.CampaignOptions{Mutations: 4, Seed: 9, CPUs: 2, Levels: []string{"none", "full"}}

	runWith := func(p *snapshot.Pool) []byte {
		t.Helper()
		old := snapshot.Shared
		snapshot.Shared = p
		defer func() { snapshot.Shared = old }()
		rep, err := attack.RunCampaign(campaign)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := snapshot.NewPool()
	p1.Store = st1
	before := p1.Stats()
	cold := runWith(p1)
	p1.WaitPersist()
	if p1.Stats().Boots == before.Boots {
		t.Fatal("cold campaign paid no boots — store unexpectedly warm")
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2 := snapshot.NewPool()
	p2.Store = st2
	before = p2.Stats()
	warm := runWith(p2)
	if boots := p2.Stats().Boots - before.Boots; boots != 0 {
		t.Fatalf("warm campaign paid %d boots, want 0", boots)
	}
	if string(cold) != string(warm) {
		t.Fatalf("warm-start campaign report differs from cold run:\n cold: %s\n warm: %s", cold, warm)
	}
}

// TestDeleteRemovesItsFile: Delete takes the key's whole file with it
// and leaves every other snapshot loading clean; a second Delete of the
// key finds nothing, and neither does a key that is not a digest.
func TestDeleteRemovesItsFile(t *testing.T) {
	dir := t.TempDir()
	keyA := testKey(107, 1)
	keyB := testKey(108, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(keyA, bootSnap(t, keyA)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(keyB, bootSnap(t, keyB)); err != nil {
		t.Fatal(err)
	}

	if err := s.Delete(keyB.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshots", keyB.Digest+".snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted snapshot's file remains: %v", err)
	}
	for _, k := range []string{keyB.Digest, "../snapshots/" + keyA.Digest, strings.ToUpper(keyA.Digest)} {
		if err := s.Delete(k); !errors.Is(err, snapshot.ErrNotFound) {
			t.Fatalf("Delete(%q) = %v, want snapshot.ErrNotFound", k, err)
		}
	}
	if _, _, err := s.Load(keyA); err != nil {
		t.Fatalf("surviving snapshot broken after delete: %v", err)
	}
	if _, _, err := s.Load(keyB); !errors.Is(err, snapshot.ErrNotFound) {
		t.Fatalf("deleted snapshot still loads: %v", err)
	}
}

// TestCorruptStoreFallsBackToBoot: a store-backed pool whose persisted
// snapshot fails verification boots fresh instead of failing the key,
// and that boot's persist rewrites the file: the next process loads the
// key from the store with no boot.
func TestCorruptStoreFallsBackToBoot(t *testing.T) {
	dir := t.TempDir()
	key := testKey(109, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(key, bootSnap(t, key)); err != nil {
		t.Fatal(err)
	}
	path, raw, _, n := snapFile(t, dir, key.Digest)
	raw[n+10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := snapshot.NewPool()
	p.Store = st2
	before := p.Stats()
	mach, err := p.Acquire(key, snapshot.BootOptions(key.Options))
	if err != nil {
		t.Fatalf("pool failed on corrupt store instead of booting: %v", err)
	}
	mach.Release()
	// The fallback boot re-persists in the background; wait for the
	// rewrite before the next process opens the store.
	p.WaitPersist()
	st := p.Stats()
	boots, loads := st.Boots-before.Boots, st.StoreLoads-before.StoreLoads
	if boots != 1 || loads != 0 {
		t.Fatalf("%d boots / %d store loads, want a fallback boot", boots, loads)
	}

	// "Restart": fresh store handle, fresh pool, same directory.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p3 := snapshot.NewPool()
	p3.Store = st3
	before = p3.Stats()
	mach, err = p3.Acquire(key, func() (*kernel.Kernel, error) {
		return nil, errors.New("boot closure ran although the re-persist should have healed the store")
	})
	if err != nil {
		t.Fatalf("store not healed by the fallback boot's persist: %v", err)
	}
	mach.Release()
	st = p3.Stats()
	boots, loads = st.Boots-before.Boots, st.StoreLoads-before.StoreLoads
	if boots != 0 || loads != 1 {
		t.Fatalf("after the re-persist: %d boots / %d store loads, want 0 / 1", boots, loads)
	}
}

// TestSupersededSnapshotRemoved: a snapshot whose state record has the
// previous wire version, as every file saved before a version bump
// has, is refused at load with one verify failure. The pool boots the
// key once and saves it, and the rename replaces the refused file: the
// store holds one file and lists one snapshot for the key, and the
// next process loads it with no boot.
func TestSupersededSnapshotRemoved(t *testing.T) {
	dir := t.TempDir()
	key := testKey(110, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the file as the previous wire version saved it: the state
	// record opens with the 9-byte magic "camoSTATE", then the version.
	path, raw, m, n := snapFile(t, dir, key.Digest)
	body := raw[n:]
	const versionOff = len("camoSTATE")
	binary.LittleEndian.PutUint64(body[versionOff:], binary.LittleEndian.Uint64(body[versionOff:])-1)
	old := *m
	old.Digest = old.contentDigest(body)
	if err := os.WriteFile(path, encodeFile(t, &old, body), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := snapshot.NewPool()
	p.Store = st2
	before, fails := p.Stats(), obs.CounterTotal(obs.CStoreVerifyFail)
	mach, err := p.Acquire(key, snapshot.BootOptions(key.Options))
	if err != nil {
		t.Fatal(err)
	}
	mach.Release()
	p.WaitPersist()
	if f, boots := obs.CounterTotal(obs.CStoreVerifyFail)-fails, p.Stats().Boots-before.Boots; f != 1 || boots != 1 {
		t.Fatalf("%d verify failures / %d boots, want 1 / 1", f, boots)
	}
	files, err := filepath.Glob(filepath.Join(dir, "snapshots", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != key.Digest+".snap" {
		t.Fatalf("store holds %v, want only %s.snap", files, key.Digest)
	}
	if l := st2.List(); len(l) != 1 || l[0].Digest != digest || l[0].KeyDigest != key.Digest {
		t.Fatalf("List = %+v, want only %s under key %s", l, digest, key.Digest)
	}

	// "Restart": fresh store handle, fresh pool, same directory.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p3 := snapshot.NewPool()
	p3.Store = st3
	before = p3.Stats()
	mach, err = p3.Acquire(key, func() (*kernel.Kernel, error) {
		return nil, errors.New("boot closure ran although the store holds the re-saved snapshot")
	})
	if err != nil {
		t.Fatal(err)
	}
	mach.Release()
	if st := p3.Stats(); st.Boots-before.Boots != 0 || st.StoreLoads-before.StoreLoads != 1 {
		t.Fatalf("reopened store: %d boots / %d loads, want 0 / 1", st.Boots-before.Boots, st.StoreLoads-before.StoreLoads)
	}
}
