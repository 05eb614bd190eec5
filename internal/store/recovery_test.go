package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/internal/fault"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
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
// wide: each one ends in exactly one verified hit or verify failure.
func physicalLoads() uint64 {
	return obs.CounterTotal(obs.CStoreHit) + obs.CounterTotal(obs.CStoreVerifyFail)
}

// TestLoadRetryableAfterInjectedFailure: one failed load must leave the
// key retryable by the very next caller on the same open store — no
// reopen, and the retry is a second physical load.
func TestLoadRetryableAfterInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	key := testKey(131, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(key, bootSnap(t, key)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := withFaults(t, "store.chunk.read=1")
	before := physicalLoads()

	_, _, err = s2.Load(key)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.StoreChunkRead {
		t.Fatalf("first load error = %v, want injected store.chunk.read", err)
	}
	if got := r.Fired(fault.StoreChunkRead); got != 1 {
		t.Fatalf("fired %d faults, want 1", got)
	}

	snap, _, err := s2.Load(key)
	if err != nil {
		t.Fatalf("retry on the same store handle failed: %v", err)
	}
	if snap == nil {
		t.Fatal("retry returned nil snapshot")
	}
	if got := physicalLoads() - before; got != 2 {
		t.Fatalf("disk loads = %d, want 2 (failed + retried)", got)
	}
}

// TestRecoverySweep: stranded temp files and torn manifests are removed
// at open; intact manifests survive.
func TestRecoverySweep(t *testing.T) {
	dir := t.TempDir()
	key := testKey(132, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-write strands temp files in both trees, and can tear a
	// manifest that was written without the atomic publish.
	for _, p := range []string{
		filepath.Join(dir, "snapshots", ".tmp-123"),
		filepath.Join(dir, "chunks", digest[:2], ".tmp-456"),
	} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Join(dir, "snapshots", strings.Repeat("ab", 32)+".json")
	if err := os.WriteFile(torn, []byte(`{"version":1,"digest":"tr`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if rec.OrphanTmps != 2 || rec.BadManifests != 1 {
		t.Fatalf("recovery = %+v, want 2 orphans + 1 bad manifest", rec)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("torn manifest survived the sweep")
	}
	if _, _, err := s2.Load(key); err != nil {
		t.Fatalf("intact snapshot lost in sweep: %v", err)
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

// TestQuarantineAfterRepeatedFailures: the third consecutive failed
// load quarantines the digest; further loads fast-fail with a typed
// error and no disk work, listings surface it, and a fresh save of the
// same content lifts it.
func TestQuarantineAfterRepeatedFailures(t *testing.T) {
	dir := t.TempDir()
	key := testKey(134, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := bootSnap(t, key)
	digest, err := s.Save(key, snap)
	if err != nil {
		t.Fatal(err)
	}

	withFaults(t, "store.chunk.read=3")
	for i := 0; i < QuarantineThreshold; i++ {
		if _, _, err := s.Load(key); err == nil {
			t.Fatalf("load %d survived the injected read failure", i)
		}
	}
	if !s.Quarantined(digest) {
		t.Fatal("digest not quarantined after repeated failures")
	}

	before := physicalLoads()
	_, _, err = s.Load(key)
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Digest != digest || qe.Failures < QuarantineThreshold {
		t.Fatalf("load of quarantined digest = %v, want *QuarantineError", err)
	}
	if physicalLoads() != before {
		t.Fatal("quarantined load still hit the disk")
	}
	if _, err := s.LoadDigest(digest); !errors.As(err, &qe) {
		t.Fatalf("LoadDigest of quarantined digest = %v", err)
	}

	found := false
	for _, info := range s.List() {
		if info.Digest == digest {
			found = true
			if !info.Quarantined {
				t.Fatal("listing does not surface quarantine")
			}
		}
	}
	if !found {
		t.Fatal("digest missing from listing")
	}

	// A store-backed pool degrades to a fresh boot, it does not fail.
	p := snapshot.NewPool()
	p.Store = s
	ps := p.Stats()
	m, err := p.Acquire(key, snapshot.BootOptions(key.Options))
	if err != nil {
		t.Fatalf("pool failed on quarantined digest instead of booting: %v", err)
	}
	m.Release()
	p.WaitPersist()
	st := p.Stats()
	boots, loads := st.Boots-ps.Boots, st.StoreLoads-ps.StoreLoads
	if boots != 1 || loads != 0 {
		t.Fatalf("%d boots / %d store loads, want a fallback boot", boots, loads)
	}

	// The fallback boot's persist re-published the digest: quarantine is
	// lifted and the next load verifies again (faults are exhausted).
	if s.Quarantined(digest) {
		t.Fatal("re-save did not lift quarantine")
	}
	if _, _, err := s.Load(key); err != nil {
		t.Fatalf("load after re-save: %v", err)
	}
}
