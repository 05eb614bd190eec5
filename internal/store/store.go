// Package store is the on-disk snapshot store behind
// `camouflaged -store-dir` (DESIGN.md §12): booted machine snapshots
// persist across process restarts, so a daemon restarted against a
// populated store serves its first experiment in milliseconds — a
// verified load and a copy-on-write fork — instead of paying codegen,
// the §4.1 static-analysis gate and boot again.
//
// Layout under the store directory:
//
//	snapshots/<key>.snap     one file per configuration: a one-line JSON
//	                         header, the serialized state record, then
//	                         every frozen 4KiB RAM page in page-number
//	                         order. <key> is the configuration's key
//	                         digest, snapshot.KeyFor(opts).Digest.
//
// Boots are deterministic, so one configuration boots to one machine
// and one snapshot: the file name is the store's whole index. Save
// replaces the key's file by atomic rename, Load reads it, Delete
// removes it. Snapshots share no bytes: every (build, seed) boot links
// its own kernel image, whose §4.1 key setter carries that boot's keys
// in its immediates. Nothing reads a file after its load, so any
// snapshot may be deleted at any time.
//
// Nothing is trusted on the way back in. Every Load reads the file
// once, checks that the header names the file's key, checks the
// header's lengths against the body and recomputes the content digest
// before a single fork is served; any mismatch is a typed *VerifyError
// and the snapshot is refused. The file holds the kernel image's pages
// but not the image: the state decoder rebuilds it from the build
// options in the state record, §4.1-verifies it exactly like a fresh
// boot, and refuses a page under a read-only section that differs from
// it.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"camouflage/internal/fault"
	"camouflage/internal/kernel"
	"camouflage/internal/mem"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
)

var loadHist = obs.NewHistogram("camouflage_store_load_seconds",
	"Latency of verified snapshot loads from the persistent store.", obs.DefaultLatencyBuckets)

// fileVersion guards the snapshot file layout; bump on layout changes.
const fileVersion = 3

// maxHeaderSize bounds a header line, newline included: no header read
// goes further into a file, and Save refuses a header that would not
// fit.
const maxHeaderSize = 1 << 20

// Manifest is the header line of a snapshot file. The body after it is
// the state record (StateSize bytes), then one page per entry of Pages,
// in that order. KeyDigest names the file; Key is the human-readable
// normalized option string it is the SHA-256 of. Digest is the
// whole-snapshot SHA-256 that Load verifies.
type Manifest struct {
	Version    int      `json:"version"`
	Digest     string   `json:"digest"`
	KeyDigest  string   `json:"key_digest"`
	Key        string   `json:"key"`
	BootCycles uint64   `json:"boot_cycles"`
	StateSize  int      `json:"state_size"`
	Pages      []uint64 `json:"pages"`
}

// contentDigest computes the digest a header commits to for body: the
// SHA-256 of the header with Digest cleared, a newline, and the body.
func (m *Manifest) contentDigest(body []byte) string {
	canon := *m
	canon.Digest = ""
	// Marshal cannot fail: the header holds only strings, integers and
	// a slice of integers.
	hdr, _ := json.Marshal(&canon)
	h := sha256.New()
	h.Write(hdr)
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// decodeHeader parses the header line at the start of a snapshot file,
// reading at most maxHeaderSize bytes, and returns it with its length,
// newline included.
func decodeHeader(r io.Reader) (*Manifest, int, error) {
	line, err := bufio.NewReader(io.LimitReader(r, maxHeaderSize)).ReadBytes('\n')
	if errors.Is(err, io.EOF) {
		return nil, 0, fmt.Errorf("no header line in the first %d bytes", maxHeaderSize)
	}
	if err != nil {
		return nil, 0, err
	}
	var m Manifest
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, 0, err
	}
	return &m, len(line), nil
}

// VerifyError reports an integrity failure: the named part of a
// snapshot file does not hold what its name and header commit to. A
// snapshot that fails verification is never served.
type VerifyError struct {
	Key  string // key digest, the file's name
	Part string // "header", "length", "content" or "options"
	Want string
	Got  string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("store: snapshot %.12s: %s mismatch: want %s, file holds %s",
		e.Key, e.Part, e.Want, e.Got)
}

// readHeader parses the header at the start of the file of key, as
// decodeHeader does, and refuses a header that does not parse, is not
// this layout's or does not name that file.
func readHeader(r io.Reader, key string) (*Manifest, int, error) {
	m, n, err := decodeHeader(r)
	if err != nil {
		return nil, 0, &VerifyError{Key: key, Part: "header", Want: "a JSON header line", Got: err.Error()}
	}
	if m.Version != fileVersion || m.KeyDigest != key {
		return nil, 0, &VerifyError{Key: key, Part: "header",
			Want: fmt.Sprintf("version %d key %s", fileVersion, key),
			Got:  fmt.Sprintf("version %d key %s", m.Version, m.KeyDigest)}
	}
	return m, n, nil
}

// Store is a snapshot store rooted at a directory. It implements
// snapshot.Store; all methods are safe for concurrent use, including
// across processes sharing the directory (every write publishes a
// whole file by atomic rename).
type Store struct {
	dir      string
	recovery RecoveryStats
}

// RecoveryStats reports what the startup recovery sweep removed.
type RecoveryStats struct {
	// OrphanTmps counts temp files stranded by a crash mid-write.
	OrphanTmps int `json:"orphan_tmps"`
}

// Open opens (creating if needed) a store rooted at dir and removes
// the temp files a crash mid-write stranded: a temp file exists only
// between its creation and the publishing rename, so one found at open
// was never published. Every other file stays; a snapshot file is read
// only when its key is loaded.
func Open(dir string) (*Store, error) {
	snaps := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snaps, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	ents, err := os.ReadDir(snaps)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), ".tmp-") && os.Remove(filepath.Join(snaps, ent.Name())) == nil {
			s.recovery.OrphanTmps++
		}
	}
	if n := s.recovery.OrphanTmps; n > 0 {
		obs.Add(obs.CStoreOrphanSweep, uint64(n))
	}
	return s, nil
}

// isDigest reports whether name is a SHA-256 in lower-case hex, the
// form of every key digest.
func isDigest(name string) bool {
	return len(name) == 2*sha256.Size && strings.Trim(name, "0123456789abcdef") == ""
}

// snapPath returns the path of the snapshot file of key. A key that is
// not a digest names no file: keys arrive from URLs, and only a digest
// is safe to join into a path.
func (s *Store) snapPath(key string) (string, bool) {
	if !isDigest(key) {
		return "", false
	}
	return filepath.Join(s.dir, "snapshots", key+".snap"), true
}

// Recovery returns what the startup sweep cleaned up.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// writeFileAtomic publishes the concatenated parts at path
// crash-consistently: temp file in the same directory, fsync, rename,
// directory fsync. A crash at any point leaves either the old content
// or the new — never a torn file — plus at worst a stranded temp for
// the recovery sweep. The store.crash fault point models exactly that
// crash: it strands the temp file and fails; store.rename fails the
// publish cleanly.
func writeFileAtomic(path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := fault.ErrAt(fault.StoreCrash); err != nil {
		// Simulated crash-before-rename: the temp file stays behind,
		// exactly what a process death here leaves on disk.
		return err
	}
	if err := fault.ErrAt(fault.StoreRename); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Save persists the snapshot as its key's file and returns the content
// digest the file commits to. The rename replaces whatever file the key
// had, so a re-save heals a file that fails verification, such as one
// refused for an older state wire version. Every call counts once: as
// a save, or as a save failure (the pool persists in the background and
// drops the error, so the counter is how an unwritable store shows).
func (s *Store) Save(key snapshot.Key, snap *snapshot.Snapshot) (string, error) {
	digest, err := s.save(key, snap)
	if err != nil {
		obs.Add(obs.CStoreSaveFail, 1)
		return "", err
	}
	obs.Add(obs.CStoreSave, 1)
	return digest, nil
}

func (s *Store) save(key snapshot.Key, snap *snapshot.Snapshot) (string, error) {
	if err := fault.ErrAt(fault.StorePersist); err != nil {
		return "", err
	}
	path, ok := s.snapPath(key.Digest)
	if !ok {
		return "", fmt.Errorf("store: key digest %q is not a SHA-256", key.Digest)
	}
	st := snap.State()
	body, err := st.Serialize()
	if err != nil {
		return "", fmt.Errorf("store: serialize snapshot: %w", err)
	}
	m := &Manifest{
		Version:    fileVersion,
		KeyDigest:  key.Digest,
		Key:        key.Norm(),
		BootCycles: snap.BootCycles(),
		StateSize:  len(body),
	}
	st.ForEachFrozenPage(func(pn uint64, pg *[mem.PageSize]byte) {
		m.Pages = append(m.Pages, pn)
		body = append(body, pg[:]...)
	})
	m.Digest = m.contentDigest(body)
	hdr, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("store: encode header: %w", err)
	}
	if len(hdr) >= maxHeaderSize {
		return "", fmt.Errorf("store: header of %d pages exceeds %d bytes", len(m.Pages), maxHeaderSize)
	}
	if err := writeFileAtomic(path, append(hdr, '\n'), body); err != nil {
		return "", fmt.Errorf("store: write snapshot: %w", err)
	}
	return m.Digest, nil
}

// Load returns the verified snapshot persisted for the key's
// configuration, plus its content digest, or snapshot.ErrNotFound.
// Every call is a physical, verified load: the pool arms each key once
// and serves its forks from the result, so it never asks twice. A
// failed load counts as a verify failure only when the file's content
// was refused; a file that could not be read is a load error.
func (s *Store) Load(key snapshot.Key) (*snapshot.Snapshot, string, error) {
	t0 := time.Now()
	snap, digest, err := s.load(key.Digest)
	if err != nil {
		var ve *VerifyError
		var de *kernel.StateDecodeError
		switch {
		case errors.Is(err, snapshot.ErrNotFound):
			obs.Add(obs.CStoreMiss, 1)
		case errors.As(err, &ve) || errors.As(err, &de):
			obs.Add(obs.CStoreVerifyFail, 1)
		default:
			obs.Add(obs.CStoreLoadError, 1)
		}
		return nil, "", err
	}
	obs.Add(obs.CStoreHit, 1)
	loadHist.ObserveSince(t0)
	return snap, digest, nil
}

// load reads the snapshot file of key once, verifies it whole, then
// reconstructs the kernel state (rebuilding and §4.1-verifying the
// image from its build options). A key with no file is a miss, which
// consumes no store.read check.
func (s *Store) load(key string) (*snapshot.Snapshot, string, error) {
	path, ok := s.snapPath(key)
	if !ok {
		return nil, "", snapshot.ErrNotFound
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, "", snapshot.ErrNotFound
	}
	if err == nil {
		err = fault.ErrAt(fault.StoreRead)
	}
	if err != nil {
		return nil, "", fmt.Errorf("store: snapshot %.12s: %w", key, err)
	}
	fault.Corrupt(fault.StoreCorrupt, raw)
	m, n, err := readHeader(bytes.NewReader(raw), key)
	if err != nil {
		return nil, "", err
	}
	// The lengths are checked before anything is sliced or sized by
	// them; the header is at most maxHeaderSize bytes, so the page
	// count cannot overflow the product.
	body := raw[n:]
	if rest := len(body) - m.StateSize; m.StateSize < 0 || rest < 0 || rest != len(m.Pages)*mem.PageSize {
		return nil, "", &VerifyError{Key: key, Part: "length",
			Want: fmt.Sprintf("%d state bytes and %d pages", m.StateSize, len(m.Pages)),
			Got:  fmt.Sprintf("%d body bytes", len(body))}
	}
	if got := m.contentDigest(body); got != m.Digest {
		return nil, "", &VerifyError{Key: key, Part: "content", Want: m.Digest, Got: got}
	}
	// The pages alias the file buffer, which nothing else holds: it
	// becomes the read-only copy-on-write base of every fork.
	pages := make(map[uint64]*[mem.PageSize]byte, len(m.Pages))
	for i, pn := range m.Pages {
		pages[pn] = (*[mem.PageSize]byte)(body[m.StateSize+i*mem.PageSize:])
	}
	st, err := kernel.DeserializeState(body[:m.StateSize], pages)
	if err != nil {
		return nil, "", fmt.Errorf("store: snapshot %.12s: %w", key, err)
	}
	// The content digest proves only that the file is whole: a header
	// re-stamped under another key verifies. The options the machine
	// was built with must hash to the key the file is named by.
	if got := snapshot.KeyFor(st.Options()).Digest; got != key {
		return nil, "", &VerifyError{Key: key, Part: "options", Want: key, Got: got}
	}
	return snapshot.FromState(st), m.Digest, nil
}

// Info summarizes one persisted snapshot for listings.
type Info struct {
	Digest     string `json:"digest"`
	KeyDigest  string `json:"key_digest"`
	Key        string `json:"key"`
	Pages      int    `json:"pages"`
	BootCycles uint64 `json:"boot_cycles"`
}

// List returns every persisted snapshot whose header names its file,
// in key digest order. It reads each file's header and nothing more,
// so a listed snapshot may still fail a load's verification.
func (s *Store) List() []Info {
	// A directory that cannot be read lists nothing; Save and Load
	// report why.
	ents, _ := os.ReadDir(filepath.Join(s.dir, "snapshots"))
	var out []Info
	for _, ent := range ents {
		key, ok := strings.CutSuffix(ent.Name(), ".snap")
		if !ok {
			continue
		}
		m, err := s.ManifestFor(key)
		if err != nil {
			continue
		}
		out = append(out, Info{
			Digest:     m.Digest,
			KeyDigest:  m.KeyDigest,
			Key:        m.Key,
			Pages:      len(m.Pages),
			BootCycles: m.BootCycles,
		})
	}
	return out
}

// ManifestFor returns the header of the snapshot persisted under the
// key digest, or snapshot.ErrNotFound when the store holds no file for
// it. A header that does not parse or does not name the file is a
// *VerifyError.
func (s *Store) ManifestFor(key string) (*Manifest, error) {
	path, ok := s.snapPath(key)
	if !ok {
		return nil, snapshot.ErrNotFound
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, snapshot.ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := readHeader(f, key)
	return m, err
}

// Delete removes the key's snapshot file, and with it every byte the
// snapshot held. A snapshot already loaded lives on in memory: the
// pool's armed key and every machine forked from it keep running.
func (s *Store) Delete(key string) error {
	path, ok := s.snapPath(key)
	if !ok {
		return snapshot.ErrNotFound
	}
	if err := os.Remove(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return snapshot.ErrNotFound
		}
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	obs.Add(obs.CStoreEvict, 1)
	return nil
}
