package server

// Tests for the /v1/snapshots and /v1/images resource surface: listing,
// manifest inspect, pin/unpin, delete with its two 409 guards (pinned,
// lease-backed), and the 503 answer of a store-less daemon.

import (
	"context"
	"errors"
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
	if _, err := c.Images(ctx); apiStatus(t, err) != 503 {
		t.Fatalf("Images without store: %v, want 503", err)
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

	mani, err := c.Snapshot(ctx, info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if mani.Digest != info.Digest || len(mani.Pages) != info.Pages || mani.Key != info.Key {
		t.Fatalf("manifest disagrees with listing: %+v vs %+v", mani, info)
	}

	imgs, err := c.Images(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 1 || imgs[0].ImageDigest != info.ImageDigest {
		t.Fatalf("images = %+v, want one entry for %s", imgs, info.ImageDigest)
	}

	// Guard 1: the snapshot backs an active lease — DELETE is 409.
	if err := c.DeleteSnapshot(ctx, info.Digest); apiStatus(t, err) != 409 {
		t.Fatalf("DeleteSnapshot under lease: %v, want 409", err)
	}
	if err := m.Release(ctx); err != nil {
		t.Fatal(err)
	}

	// Guard 2: pinned — DELETE stays 409 even with no lease.
	if err := c.PinSnapshot(ctx, info.Digest, true); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(ctx, info.Digest); apiStatus(t, err) != 409 {
		t.Fatalf("DeleteSnapshot while pinned: %v, want 409", err)
	}
	// The pin also protects the pool's warm machines from eviction.
	if pool.EvictIdle(0) != 0 {
		t.Fatal("EvictIdle(0) evicted machines of a pinned snapshot")
	}

	if err := c.PinSnapshot(ctx, info.Digest, false); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(ctx, info.Digest); err != nil {
		t.Fatalf("DeleteSnapshot unpinned, unleased: %v", err)
	}
	snaps, err = c.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("%d snapshots listed after delete, want 0", len(snaps))
	}
	if err := c.DeleteSnapshot(ctx, info.Digest); apiStatus(t, err) != 404 {
		t.Fatalf("second delete: %v, want 404", err)
	}
	if _, err := c.Snapshot(ctx, info.Digest); apiStatus(t, err) != 404 {
		t.Fatalf("manifest after delete: %v, want 404", err)
	}
}
