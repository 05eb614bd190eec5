package client

// Typed bindings for the daemon's snapshot-store surface
// (/v1/snapshots): list and inspect persisted snapshots, and delete
// them. A delete needs no guard: the daemon serves every machine from
// in-memory snapshots, so leases and warm keys outlive their files.

import (
	"context"
	"net/http"

	"camouflage/internal/store"
)

// SnapshotInfo is one persisted snapshot as listed by GET /v1/snapshots.
type SnapshotInfo struct {
	// Digest is the whole-snapshot content address; every administer
	// call (inspect, delete) takes it.
	Digest string `json:"digest"`
	// KeyDigest/Key identify the build configuration the snapshot
	// captures (Key is the human-readable normalized option string).
	KeyDigest string `json:"key_digest"`
	Key       string `json:"key"`
	// ImageDigest identifies the kernel image the snapshot was booted
	// from; it is informational, as the options rebuild the image.
	ImageDigest string `json:"image_digest"`
	Pages       int    `json:"pages"`
	CPUs        int    `json:"cpus"`
	BootCycles  uint64 `json:"boot_cycles"`
	CreatedUnix int64  `json:"created_unix"`
	// Resident reports whether the daemon currently holds this
	// configuration armed in a warm pool; IdleMachines counts its parked
	// machines.
	Resident     bool `json:"resident"`
	IdleMachines int  `json:"idle_machines"`
}

// SnapshotsResponse is the GET /v1/snapshots reply.
type SnapshotsResponse struct {
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// SnapshotManifest is the header of a snapshot file, as GET
// /v1/snapshots/{digest} returns it. Listings give only the page count;
// the header lists the page numbers, so clients can audit exactly which
// pages a snapshot commits to.
type SnapshotManifest = store.Manifest

// SnapshotOptions is the header's build-options block.
type SnapshotOptions = store.OptionsManifest

// Snapshots lists the snapshots persisted in the daemon's store.
func (c *Client) Snapshots(ctx context.Context) ([]SnapshotInfo, error) {
	var out SnapshotsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/snapshots", nil, &out); err != nil {
		return nil, err
	}
	return out.Snapshots, nil
}

// Snapshot fetches one snapshot's header.
func (c *Client) Snapshot(ctx context.Context, digest string) (*SnapshotManifest, error) {
	var out SnapshotManifest
	if err := c.do(ctx, http.MethodGet, "/v1/snapshots/"+digest, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteSnapshot removes a snapshot from the store; the daemon answers
// 404 for a digest it does not hold. Machines already serving from the
// snapshot keep running, and a warm key keeps its in-memory copy.
func (c *Client) DeleteSnapshot(ctx context.Context, digest string) error {
	return c.do(ctx, http.MethodDelete, "/v1/snapshots/"+digest, nil, nil)
}
