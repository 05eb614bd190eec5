package server

// Snapshot-store resource routes (DESIGN.md §12): list persisted
// snapshots, inspect a manifest, pin/unpin, evict, and group by image.
// They are read/administer surfaces over the daemon's -store-dir; when
// the daemon runs without a store they answer 503 so clients can tell
// "no store" from "empty store".

import (
	"errors"
	"net/http"

	"camouflage/client"
	"camouflage/internal/snapshot"
	"camouflage/internal/store"
)

func (s *Server) storeOr503(w http.ResponseWriter) *store.Store {
	if s.cfg.Store == nil {
		writeErr(w, http.StatusServiceUnavailable, "no snapshot store configured (start the daemon with -store-dir)")
		return nil
	}
	return s.cfg.Store
}

// resident maps key digests to their in-memory pool entries, so
// listings can show which persisted snapshots are currently armed.
func (s *Server) resident() map[string]snapshot.EntryInfo {
	out := make(map[string]snapshot.EntryInfo)
	for _, e := range snapshot.Shared.Entries() {
		out[e.Key.Digest] = e
	}
	return out
}

func (s *Server) handleListSnapshots(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	res := s.resident()
	var out []client.SnapshotInfo
	for _, info := range st.List() {
		e, ok := res[info.KeyDigest]
		out = append(out, client.SnapshotInfo{
			Digest:      info.Digest,
			KeyDigest:   info.KeyDigest,
			Key:         info.Key,
			ImageDigest: info.ImageDigest,
			Pages:       info.Pages,
			CPUs:        info.CPUs,
			BootCycles:  info.BootCycles,
			Pinned:      info.Pinned,
			CreatedUnix: info.CreatedUnix,
			Resident:    ok,
			Quarantined: info.Quarantined,
			IdleMachines: func() int {
				if ok {
					return e.Idle
				}
				return 0
			}(),
		})
	}
	writeJSON(w, http.StatusOK, client.SnapshotsResponse{Snapshots: out})
}

func (s *Server) handleSnapshotManifest(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	m, err := st.ManifestFor(r.PathValue("digest"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "no such snapshot")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleSnapshotPin(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	var req client.PinRequest
	if !readJSON(w, r, &req) {
		return
	}
	digest := r.PathValue("digest")
	if err := st.Pin(digest, req.Pinned); err != nil {
		if errors.Is(err, snapshot.ErrNotFound) {
			writeErr(w, http.StatusNotFound, "no such snapshot")
		} else {
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	// Mirror the pin onto the resident pool entry so EvictIdle honours
	// it immediately; a snapshot not resident yet simply has no warm
	// machines to protect.
	snapshot.Shared.Pin(digest, req.Pinned)
	writeJSON(w, http.StatusOK, map[string]any{"digest": digest, "pinned": req.Pinned})
}

func (s *Server) handleSnapshotDelete(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	digest := r.PathValue("digest")
	m, err := st.ManifestFor(digest)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no such snapshot")
		return
	}
	// A snapshot backing a checked-out machine must not vanish under its
	// lease: the client still holds a fork of exactly this state.
	if s.leases.keyDigestInUse(m.KeyDigest) {
		writeErr(w, http.StatusConflict, "snapshot is backing an active machine lease")
		return
	}
	if err := st.Delete(digest); err != nil {
		switch {
		case errors.Is(err, store.ErrPinned):
			writeErr(w, http.StatusConflict, "snapshot is pinned; unpin before deleting")
		case errors.Is(err, snapshot.ErrNotFound):
			writeErr(w, http.StatusNotFound, "no such snapshot")
		default:
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "digest": digest})
}

func (s *Server) handleListImages(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	var out []client.ImageInfo
	for _, img := range st.Images() {
		out = append(out, client.ImageInfo{
			ImageDigest:  img.ImageDigest,
			Snapshots:    img.Snapshots,
			TotalPages:   img.TotalPages,
			UniqueChunks: img.UniqueChunks,
		})
	}
	writeJSON(w, http.StatusOK, client.ImagesResponse{Images: out})
}
