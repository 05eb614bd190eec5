package server

// Snapshot-store resource routes (DESIGN.md §12): list persisted
// snapshots, inspect a header and delete one, each addressed by its
// configuration's key digest. They are read/administer surfaces over
// the daemon's -store-dir; when the daemon runs without a store they
// answer 503 so clients can tell "no store" from "empty store".

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
			Digest:       info.Digest,
			KeyDigest:    info.KeyDigest,
			Key:          info.Key,
			Pages:        info.Pages,
			BootCycles:   info.BootCycles,
			Resident:     ok,
			IdleMachines: e.Idle,
		})
	}
	writeJSON(w, http.StatusOK, client.SnapshotsResponse{Snapshots: out})
}

func (s *Server) handleSnapshotManifest(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	m, err := st.ManifestFor(r.PathValue("key"))
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleSnapshotDelete removes any snapshot the store holds. Nothing
// needs it afterwards: a loaded snapshot lives wholly in memory, so
// the pool's armed keys, and the leases, forks and resets they serve,
// never read its file again.
func (s *Server) handleSnapshotDelete(w http.ResponseWriter, r *http.Request) {
	st := s.storeOr503(w)
	if st == nil {
		return
	}
	key := r.PathValue("key")
	if err := st.Delete(key); err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "key_digest": key})
}

// writeStoreErr answers 404 for a key the store holds no file for,
// including every key that is not a digest, and 500 for any other
// failure, such as a header that does not parse.
func writeStoreErr(w http.ResponseWriter, err error) {
	if errors.Is(err, snapshot.ErrNotFound) {
		writeErr(w, http.StatusNotFound, "no such snapshot")
	} else {
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}
