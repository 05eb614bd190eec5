package client

// Typed bindings for the daemon's snapshot-store surface
// (/v1/snapshots): list and inspect persisted snapshots, and delete
// them, each addressed by its configuration's key digest. A delete
// needs no guard: the daemon serves every machine from in-memory
// snapshots, so leases and warm keys outlive their files.

import (
	"context"
	"net/http"
	"net/url"

	"camouflage/internal/store"
)

// SnapshotInfo is one persisted snapshot as listed by GET /v1/snapshots.
type SnapshotInfo struct {
	// Digest is the whole-snapshot content digest the file commits to;
	// it is informational, as every administer call (inspect, delete)
	// takes KeyDigest.
	Digest string `json:"digest"`
	// KeyDigest/Key identify the build configuration the snapshot
	// captures (Key is the human-readable normalized option string,
	// KeyDigest its SHA-256 and the snapshot file's name).
	KeyDigest  string `json:"key_digest"`
	Key        string `json:"key"`
	Pages      int    `json:"pages"`
	BootCycles uint64 `json:"boot_cycles"`
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
// /v1/snapshots/{key} returns it. Listings give only the page count;
// the header lists the page numbers, so clients can audit exactly which
// pages a snapshot commits to.
type SnapshotManifest = store.Manifest

// Snapshots lists the snapshots persisted in the daemon's store.
func (c *Client) Snapshots(ctx context.Context) ([]SnapshotInfo, error) {
	var out SnapshotsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/snapshots", nil, &out); err != nil {
		return nil, err
	}
	return out.Snapshots, nil
}

// Snapshot fetches the header of the snapshot persisted under the key
// digest.
func (c *Client) Snapshot(ctx context.Context, key string) (*SnapshotManifest, error) {
	var out SnapshotManifest
	if err := c.do(ctx, http.MethodGet, "/v1/snapshots/"+url.PathEscape(key), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteSnapshot removes the snapshot persisted under the key digest;
// the daemon answers 404 for a key it holds no file for. Machines
// already serving from the snapshot keep running, and a warm key keeps
// its in-memory copy.
func (c *Client) DeleteSnapshot(ctx context.Context, key string) error {
	return c.do(ctx, http.MethodDelete, "/v1/snapshots/"+url.PathEscape(key), nil, nil)
}
