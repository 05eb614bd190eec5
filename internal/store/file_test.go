package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"camouflage/internal/snapshot"
)

// FuzzReadSnapshot feeds the snapshot-file decoder arbitrary files,
// each written as <key digest>.snap and loaded by that key. An input
// whose header parses is re-stamped with the content digest it commits
// to for its body, as Save would have, so loading gets past the digest
// check and reaches the length checks and the state decoder; it is
// named by its header's key digest when that is a digest. Any other
// input is written as it is, under the seed file's key. Whatever the
// bytes, Open, List and the Load must not panic, and the Load returns a
// snapshot or an error. The seeds are a real file, each tampered copy
// TestTamperedSnapshotRejected loads, and two headers whose state size
// no body can hold: a decoder that sized an allocation or a slice by it
// before checking would fail them.
func FuzzReadSnapshot(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	key := testKey(111, 1)
	if _, err := s.Save(key, bootSnap(f, key)); err != nil {
		f.Fatal(err)
	}
	_, raw, m, n := snapFile(f, dir, key.Digest)
	f.Add(raw)
	for _, c := range tampers {
		f.Add(c.edit(f, append([]byte(nil), raw...), m, n))
	}
	for _, size := range []int{-1, 1 << 62} {
		e := *m
		e.StateSize = size
		f.Add(encodeFile(f, &e, raw[n:]))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "snapshots"), 0o755); err != nil {
			t.Fatal(err)
		}
		name := key.Digest
		if m, n, err := decodeHeader(bytes.NewReader(raw)); err == nil {
			m.Digest = m.contentDigest(raw[n:])
			raw = encodeFile(t, m, raw[n:])
			if isDigest(m.KeyDigest) {
				name = m.KeyDigest
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "snapshots", name+".snap"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.List()
		snap, _, err := s.Load(snapshot.Key{Digest: name})
		if (snap == nil) == (err == nil) {
			t.Fatalf("Load = %v, %v: want a snapshot or an error", snap, err)
		}
	})
}
