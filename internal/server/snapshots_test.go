package server

// Tests for the /v1/snapshots resource surface: listing, header
// inspect, delete (also of a snapshot backing a lease), and the 503
// answer of a store-less daemon.

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/client"
	"camouflage/internal/store"
)

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an APIError", err)
	}
	return ae.Status
}

func TestSnapshotRoutesWithoutStore(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.Snapshots(ctx); apiStatus(t, err) != 503 {
		t.Fatalf("Snapshots without store: %v, want 503", err)
	}
	if err := c.DeleteSnapshot(ctx, "abc"); apiStatus(t, err) != 503 {
		t.Fatalf("DeleteSnapshot without store: %v, want 503", err)
	}
}

func TestSnapshotResourceLifecycle(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := withFreshPool(t)
	pool.Store = st
	_, _, c := newTestServer(t, Config{Store: st})
	ctx := context.Background()

	// Lease a machine: the pool boots it and persists the snapshot.
	m, err := c.Lease(ctx, client.MachineRequest{Level: "backward-edge"})
	if err != nil {
		t.Fatal(err)
	}
	pool.WaitPersist()

	snaps, err := c.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("listed %d snapshots, want 1", len(snaps))
	}
	info := snaps[0]
	if !info.Resident {
		t.Fatal("persisted snapshot not marked resident while its pool entry is armed")
	}

	mani, err := c.Snapshot(ctx, info.KeyDigest)
	if err != nil {
		t.Fatal(err)
	}
	if mani.Digest != info.Digest || mani.KeyDigest != info.KeyDigest || len(mani.Pages) != info.Pages || mani.Key != info.Key {
		t.Fatalf("manifest disagrees with listing: %+v vs %+v", mani, info)
	}

	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(ctx, info.KeyDigest); err != nil {
		t.Fatalf("DeleteSnapshot: %v", err)
	}
	snaps, err = c.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("%d snapshots listed after delete, want 0", len(snaps))
	}
	if err := c.DeleteSnapshot(ctx, info.KeyDigest); apiStatus(t, err) != 404 {
		t.Fatalf("second delete: %v, want 404", err)
	}
	if _, err := c.Snapshot(ctx, info.KeyDigest); apiStatus(t, err) != 404 {
		t.Fatalf("manifest after delete: %v, want 404", err)
	}
}

// TestSnapshotRoutesRefuseNonDigestKeys: GET and DELETE
// /v1/snapshots/{key} answer 404 for a key that is not a lower-case
// SHA-256, escaped path separators included, and touch no file: the
// files such keys would name outside snapshots/ survive.
func TestSnapshotRoutesRefuseNonDigestKeys(t *testing.T) {
	root := t.TempDir()
	st, err := store.Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	planted := []string{filepath.Join(root, "x.snap"), filepath.Join(root, "store", "x.snap")}
	for _, p := range planted {
		if err := os.WriteFile(p, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, hs, _ := newTestServer(t, Config{Store: st})
	digest := strings.Repeat("ab", 32)
	for _, key := range []string{"..%2F..%2Fx", "..%2Fx", "x", strings.ToUpper(digest), digest[1:], digest + "0"} {
		for _, method := range []string{http.MethodGet, http.MethodDelete} {
			req, err := http.NewRequest(method, hs.URL+"/v1/snapshots/"+key, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s /v1/snapshots/%s answered %d, want 404", method, key, resp.StatusCode)
			}
		}
	}
	for _, p := range planted {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("a request with a non-digest key removed %s: %v", p, err)
		}
	}
}

// TestDeleteSnapshotUnderLease: DELETE removes a snapshot that backs an
// active lease. The lease runs, reads its state and resets from the
// in-memory snapshot, and the pool's armed key serves the next lease
// with no boot and no store load.
func TestDeleteSnapshotUnderLease(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := withFreshPool(t)
	pool.Store = st
	_, _, c := newTestServer(t, Config{Store: st})
	ctx := context.Background()
	req := client.MachineRequest{Level: "backward-edge"}

	m, err := c.Lease(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	pool.WaitPersist()
	snaps, err := c.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("listed %d snapshots, want 1", len(snaps))
	}
	if err := c.DeleteSnapshot(ctx, snaps[0].KeyDigest); err != nil {
		t.Fatalf("DeleteSnapshot under lease: %v, want 200", err)
	}

	leased, err := m.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, 10_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	reset, err := m.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reset.PC != leased.PC || reset.Cycles != leased.Cycles {
		t.Fatalf("reset after delete landed at pc %#x cycle %d, lease began at pc %#x cycle %d",
			reset.PC, reset.Cycles, leased.PC, leased.Cycles)
	}
	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}

	before := pool.Stats()
	m2, err := c.Lease(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if boots, loads := after.Boots-before.Boots, after.StoreLoads-before.StoreLoads; boots != 0 || loads != 0 {
		t.Fatalf("second lease of the key paid %d boots and %d store loads, want 0 and 0", boots, loads)
	}
	if err := m2.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if snaps, err := c.Snapshots(ctx); err != nil || len(snaps) != 0 {
		t.Fatalf("listing after delete = %d snapshots (%v), want none", len(snaps), err)
	}
}
