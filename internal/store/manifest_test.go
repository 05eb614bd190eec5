package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"camouflage/internal/snapshot"
)

// savedManifest saves one booted snapshot into a store at dir and
// returns the bytes of its manifest file.
func savedManifest(t testing.TB, dir string, seed uint64) []byte {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(seed, 1)
	digest, err := s.Save(key, bootSnap(t, key))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.manifestPath(digest))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stamp sets a manifest's digest to its content digest and writes it
// into the store at dir under that name, as Save would have: the
// manifest is self-consistent, so only the checks past the digest can
// refuse it. It returns the digest.
func stamp(t testing.TB, dir string, m *Manifest) string {
	t.Helper()
	m.Digest = m.contentDigest()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshots", m.Digest+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return m.Digest
}

// badChunkNames edit a saved manifest to name a chunk writeChunk cannot
// have created: one too short for the chunks/<aa>/ fan-out, one that
// climbs out of the store.
var badChunkNames = []struct {
	name string
	edit func(m *Manifest)
}{
	{"short state chunk", func(m *Manifest) { m.StateChunk = "a" }},
	{"path-like state chunk", func(m *Manifest) { m.StateChunk = "../../x" }},
	{"short page chunk", func(m *Manifest) { m.Pages[0].Chunk = "a" }},
	{"path-like page chunk", func(m *Manifest) { m.Pages[0].Chunk = "../../x" }},
}

// TestManifestChunkNamesChecked: a self-consistent manifest that names
// a chunk by anything but a SHA-256 is skipped by Open, left on disk,
// and answered with snapshot.ErrNotFound, where its chunk name would
// otherwise be sliced and joined into a path.
func TestManifestChunkNamesChecked(t *testing.T) {
	dir := t.TempDir()
	var good Manifest
	if err := json.Unmarshal(savedManifest(t, dir, 110), &good); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "snapshots", good.Digest+".json")); err != nil {
		t.Fatal(err)
	}
	for _, c := range badChunkNames {
		t.Run(c.name, func(t *testing.T) {
			m := good
			m.Pages = append([]PageRef(nil), good.Pages...)
			c.edit(&m)
			digest := stamp(t, dir, &m)
			defer os.Remove(filepath.Join(dir, "snapshots", digest+".json"))
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.LoadDigest(digest); !errors.Is(err, snapshot.ErrNotFound) {
				t.Fatalf("LoadDigest = %v, want snapshot.ErrNotFound", err)
			}
			if n := len(s.List()); n != 0 {
				t.Fatalf("Open admitted %d manifests, want none", n)
			}
			if _, err := os.Stat(filepath.Join(dir, "snapshots", digest+".json")); err != nil {
				t.Fatalf("Open removed the skipped manifest: %v", err)
			}
		})
	}
}

// FuzzReadManifest feeds the manifest decoder arbitrary manifest files,
// each written into a store that also holds the chunks of one real
// saved snapshot. An input that parses is first re-stamped with its
// content digest, so loading gets past the digest check and reaches the
// chunk reads. Whatever the bytes, Open and LoadDigest on every admitted
// digest must not panic, LoadDigest returns a snapshot or an error, and
// no admitted manifest names a chunk by anything but a SHA-256.
func FuzzReadManifest(f *testing.F) {
	tmpl := f.TempDir()
	raw := savedManifest(f, tmpl, 111)
	chunks := filepath.Join(tmpl, "chunks")
	f.Add(raw)
	var good Manifest
	if err := json.Unmarshal(raw, &good); err != nil {
		f.Fatal(err)
	}
	for _, c := range badChunkNames[:2] {
		m := good
		c.edit(&m)
		bad, err := json.Marshal(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
	}
	f.Add(raw[:len(raw)/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.Symlink(chunks, filepath.Join(dir, "chunks")); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, "snapshots"), 0o755); err != nil {
			t.Fatal(err)
		}
		var m Manifest
		if json.Unmarshal(raw, &m) == nil {
			stamp(t, dir, &m)
		} else if err := os.WriteFile(filepath.Join(dir, "snapshots", "input.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range s.List() {
			m, err := s.ManifestFor(info.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if !isChunkName(m.StateChunk) {
				t.Fatalf("admitted manifest names state chunk %q", m.StateChunk)
			}
			for _, pg := range m.Pages {
				if !isChunkName(pg.Chunk) {
					t.Fatalf("admitted manifest names page %d chunk %q", pg.PN, pg.Chunk)
				}
			}
			if snap, err := s.LoadDigest(info.Digest); (snap == nil) == (err == nil) {
				t.Fatalf("LoadDigest = %v, %v: want a snapshot or an error", snap, err)
			}
		}
	})
}
