package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/internal/fault"
	"camouflage/internal/obs"
)

// withFaults installs a fault plan for the test and restores the
// previous registry on cleanup.
func withFaults(t *testing.T, spec string) *fault.Registry {
	t.Helper()
	r, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(r)
	t.Cleanup(func() { fault.Install(prev) })
	return r
}

// physicalLoads counts the snapshot loads that reached the disk, process
// wide: each one ends in exactly one verified hit, verify failure or
// read error.
func physicalLoads() uint64 {
	return obs.CounterTotal(obs.CStoreHit) + obs.CounterTotal(obs.CStoreVerifyFail) +
		obs.CounterTotal(obs.CStoreLoadError)
}

// TestLoadRetryableAfterInjectedFailure: one failed load must leave the
// key retryable by the very next caller on the same open store — no
// reopen, the file on disk untouched, and the retry is a second
// physical load that verifies. A failed read counts as a load error,
// not as a verify failure: the file's content was never refused. A bit
// flipped in the bytes read back is refused as content: a verify
// failure, not a load error.
func TestLoadRetryableAfterInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	key := testKey(131, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}
	_, saved, _, _ := snapFile(t, dir, digest)

	for _, c := range []struct {
		spec    string
		point   fault.Point
		refused bool // content refused (*VerifyError) rather than a read error
	}{
		{"store.read=1", fault.StoreRead, false},
		{"store.corrupt=1", fault.StoreCorrupt, true},
	} {
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := withFaults(t, c.spec)
		before := physicalLoads()
		verifyFails, loadErrors := obs.CounterTotal(obs.CStoreVerifyFail), obs.CounterTotal(obs.CStoreLoadError)

		_, _, err = s2.Load(key)
		var fe *fault.Error
		var ve *VerifyError
		if c.refused && !errors.As(err, &ve) || !c.refused && !(errors.As(err, &fe) && fe.Point == c.point) {
			t.Fatalf("%s: first load error = %v, want the injected failure", c.spec, err)
		}
		if got := r.Fired(c.point); got != 1 {
			t.Fatalf("%s: fired %d faults, want 1", c.spec, got)
		}
		if _, after, _, _ := snapFile(t, dir, digest); !bytes.Equal(after, saved) {
			t.Fatalf("%s: a failed load changed the snapshot file", c.spec)
		}
		wantVerify, wantErrors := uint64(0), uint64(1)
		if c.refused {
			wantVerify, wantErrors = 1, 0
		}
		if v, e := obs.CounterTotal(obs.CStoreVerifyFail)-verifyFails, obs.CounterTotal(obs.CStoreLoadError)-loadErrors; v != wantVerify || e != wantErrors {
			t.Fatalf("%s: failed load counted %d verify failures and %d load errors, want %d and %d",
				c.spec, v, e, wantVerify, wantErrors)
		}

		snap, gotDigest, err := s2.Load(key)
		if err != nil {
			t.Fatalf("%s: retry on the same store handle failed: %v", c.spec, err)
		}
		if snap == nil || gotDigest != digest {
			t.Fatalf("%s: retry returned %v under %s, want the snapshot under %s", c.spec, snap, gotDigest, digest)
		}
		if got := physicalLoads() - before; got != 2 {
			t.Fatalf("%s: disk loads = %d, want 2 (failed + retried)", c.spec, got)
		}
	}
}

// TestRecoverySweep: stranded temp files and torn snapshot files are
// removed at open, and intact snapshots survive.
func TestRecoverySweep(t *testing.T) {
	dir := t.TempDir()
	key := testKey(132, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(key, bootSnap(t, key)); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write strands temp files, and can tear a snapshot
	// file that was written without the atomic publish.
	for _, name := range []string{".tmp-123", ".tmp-456"} {
		if err := os.WriteFile(filepath.Join(dir, "snapshots", name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Join(dir, "snapshots", strings.Repeat("ab", 32)+".snap")
	if err := os.WriteFile(torn, []byte(`{"version":2,"digest":"tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if rec != (RecoveryStats{OrphanTmps: 2, BadManifests: 1}) {
		t.Fatalf("recovery = %+v, want 2 orphans + 1 torn file", rec)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("torn snapshot file survived the sweep")
	}
	if n := len(s2.List()); n != 1 {
		t.Fatalf("Open admitted %d snapshots, want 1", n)
	}
	if _, _, err := s2.Load(key); err != nil {
		t.Fatalf("intact snapshot lost in sweep: %v", err)
	}
}

// TestSweepDeletesRetiredLayouts: Open deletes each file it can name as
// a retired layout's (a version 1 manifest, a version 1 page chunk, a
// pin marker) and the directories they leave empty, counts them, and
// keeps every other file, look-alikes included.
func TestSweepDeletesRetiredLayouts(t *testing.T) {
	write := func(dir string, names ...string) {
		t.Helper()
		for _, name := range names {
			p := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	files := func(dir string) []string {
		t.Helper()
		var out []string
		err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			if err == nil && p != dir {
				rel, _ := filepath.Rel(dir, p)
				if info.IsDir() {
					rel += "/"
				}
				out = append(out, rel)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	d := strings.Repeat("cd", 32)

	dir := t.TempDir()
	write(dir, "snapshots/"+d+".json", "chunks/cd/"+d, "pins/"+d, "README")
	swept := obs.CounterTotal(obs.CStoreOrphanSweep)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s.Recovery(); rec != (RecoveryStats{RetiredFiles: 3}) {
		t.Fatalf("recovery = %+v, want 3 retired files", rec)
	}
	if got := obs.CounterTotal(obs.CStoreOrphanSweep) - swept; got != 3 {
		t.Fatalf("camouflage_store_recovery_orphans_total moved by %d, want 3", got)
	}
	if got, want := strings.Join(files(dir), " "), "README snapshots/"; got != want {
		t.Fatalf("after Open the store holds %q, want %q", got, want)
	}

	// Names a retired layout never wrote: a chunk under another prefix,
	// an upper-case marker, a short manifest name, a directory.
	dir = t.TempDir()
	keep := []string{"chunks/ab/" + d, "pins/" + strings.ToUpper(d), "snapshots/" + d[2:] + ".json"}
	write(dir, keep...)
	if err := os.MkdirAll(filepath.Join(dir, "pins", d), 0o755); err != nil {
		t.Fatal(err)
	}
	before := files(dir)
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("recovery = %+v, want nothing swept", rec)
	}
	if got, want := strings.Join(files(dir), " "), strings.Join(before, " "); got != want {
		t.Fatalf("after Open the store holds %q, want %q", got, want)
	}
}

// TestCrashBeforeRenameStrandsTmp: the store.crash fault leaves exactly
// the on-disk state a process death mid-publish leaves, and the next
// open sweeps it.
func TestCrashBeforeRenameStrandsTmp(t *testing.T) {
	dir := t.TempDir()
	key := testKey(133, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := bootSnap(t, key)

	withFaults(t, "store.crash=1")
	if _, err := s.Save(key, snap); err == nil {
		t.Fatal("Save survived an injected crash")
	}
	tmps := 0
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasPrefix(filepath.Base(p), ".tmp-") {
			tmps++
		}
		return nil
	})
	if tmps == 0 {
		t.Fatal("injected crash stranded no temp file")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.Recovery(); rec.OrphanTmps != tmps {
		t.Fatalf("sweep removed %d temps, crash stranded %d", rec.OrphanTmps, tmps)
	}
	// The crash exhausted its one shot; the same store now saves fine.
	if _, err := s2.Save(key, snap); err != nil {
		t.Fatalf("save after recovery: %v", err)
	}
	if _, _, err := s2.Load(key); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
}

// TestRenameFailureLeavesNoFile: a failed publishing rename
// (store.rename) fails the Save and counts it, removes the temp file and
// publishes nothing, so the store lists no snapshot; the next Save and
// Load succeed.
func TestRenameFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	key := testKey(134, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := bootSnap(t, key)

	withFaults(t, "store.rename=1")
	saveFails := obs.CounterTotal(obs.CStoreSaveFail)
	_, err = s.Save(key, snap)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.StoreRename {
		t.Fatalf("Save = %v, want the injected store.rename failure", err)
	}
	if n := obs.CounterTotal(obs.CStoreSaveFail) - saveFails; n != 1 {
		t.Fatalf("camouflage_store_save_failures_total moved by %d, want 1", n)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") || strings.HasSuffix(e.Name(), ".snap") {
			t.Fatalf("a failed rename left %s behind", e.Name())
		}
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("the store lists %d snapshots after a failed rename, want 0", n)
	}

	if _, err := s.Save(key, snap); err != nil {
		t.Fatalf("save after the failed rename: %v", err)
	}
	if _, _, err := s.Load(key); err != nil {
		t.Fatalf("load after the failed rename: %v", err)
	}
}
