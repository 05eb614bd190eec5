// Package store is the content-addressed, on-disk snapshot store behind
// `camouflaged -store-dir` (DESIGN.md §12): booted machine snapshots
// persist across process restarts, so a daemon restarted against a
// populated store serves its first experiment in milliseconds — a
// verified load and a copy-on-write fork — instead of paying codegen,
// the §4.1 static-analysis gate and boot again.
//
// Layout under the store directory:
//
//	snapshots/<digest>.snap     one file per snapshot: a one-line JSON
//	                            header, the serialized state record, then
//	                            every frozen 4KiB RAM page in page-number
//	                            order. <digest> is the SHA-256 the file
//	                            commits to.
//
// Snapshots share no bytes: every (build, seed) boot links its own
// kernel image, whose §4.1 key setter carries that boot's keys in its
// immediates. So each file stands alone, Delete frees all of it, and a
// re-save of the same content rewrites the whole file. Nothing reads a
// file after its load, so any snapshot may be deleted at any time.
//
// Nothing is trusted on the way back in. Every Load reads the file
// once, checks the header's lengths against the body and recomputes
// the digest before a single fork is served; any mismatch is a typed
// *VerifyError and the snapshot is refused. The kernel image itself is
// never stored — it is rebuilt deterministically from the build
// options in the state record and §4.1-verified, exactly like a fresh
// boot.
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
	"sort"
	"strings"
	"sync"
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
// Version 1 was a layout of shared page chunks (chunks/ and
// snapshots/*.json), whose files Open deletes.
const fileVersion = 2

// maxHeaderSize bounds a header line, newline included: Open reads no
// further into a file, and Save refuses a header that would not fit.
const maxHeaderSize = 1 << 20

// OptionsManifest is the human-readable build-options block. The
// authoritative options travel inside the state record; this block is
// for operators reading headers and for /v1/snapshots listings.
type OptionsManifest struct {
	Scheme       int    `json:"scheme"`
	ForwardCFI   bool   `json:"forward_cfi"`
	DFI          bool   `json:"dfi"`
	ZeroModifier bool   `json:"zero_modifier"`
	CPUs         int    `json:"cpus"`
	Seed         uint64 `json:"seed"`
	Compat       bool   `json:"compat"`
	V80          bool   `json:"v80"`
	Threshold    int    `json:"failure_threshold"`
}

// Manifest is the header line of a snapshot file. The body after it is
// the state record (StateSize bytes), then one page per entry of Pages,
// in that order. Digest is the whole-snapshot SHA-256 that Load
// verifies and every API call names the snapshot by.
type Manifest struct {
	Version     int             `json:"version"`
	Digest      string          `json:"digest"`
	KeyDigest   string          `json:"key_digest"`
	Key         string          `json:"key"`
	Options     OptionsManifest `json:"options"`
	ImageDigest string          `json:"image_digest"`
	CPUs        int             `json:"cpus"`
	BootCycles  uint64          `json:"boot_cycles"`
	CreatedUnix int64           `json:"created_unix"`
	StateSize   int             `json:"state_size"`
	Pages       []uint64        `json:"pages"`
}

// contentDigest computes the digest a header commits to for body: the
// SHA-256 of the header with Digest and CreatedUnix cleared, a newline,
// and the body. Only the creation time is left out, so two processes
// that boot one configuration write one digest.
func (m *Manifest) contentDigest(body []byte) string {
	canon := *m
	canon.Digest, canon.CreatedUnix = "", 0
	// Marshal cannot fail: the header holds only strings, integers,
	// booleans and a slice of integers.
	hdr, _ := json.Marshal(&canon)
	h := sha256.New()
	h.Write(hdr)
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// names reports whether the header is one of this layout's and belongs
// to the file named digest.
func (m *Manifest) names(digest string) bool {
	return m.Version == fileVersion && m.Digest == digest
}

// tornHeaderError marks a snapshot file with no parseable header line
// — the signature of a torn write, which Open deletes.
type tornHeaderError struct{ err error }

func (e *tornHeaderError) Error() string { return e.err.Error() }
func (e *tornHeaderError) Unwrap() error { return e.err }

// decodeHeader parses the header line at the start of a snapshot file,
// reading at most maxHeaderSize bytes, and returns it with its length,
// newline included.
func decodeHeader(r io.Reader) (*Manifest, int, error) {
	line, err := bufio.NewReader(io.LimitReader(r, maxHeaderSize)).ReadBytes('\n')
	if errors.Is(err, io.EOF) {
		return nil, 0, &tornHeaderError{fmt.Errorf("no header line in the first %d bytes", maxHeaderSize)}
	}
	if err != nil {
		return nil, 0, err
	}
	var m Manifest
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, 0, &tornHeaderError{err}
	}
	return &m, len(line), nil
}

// VerifyError reports an integrity failure: the named part of a
// snapshot file does not hold what its name and header commit to. A
// snapshot that fails verification is never served.
type VerifyError struct {
	Digest string // snapshot content digest (as named on disk)
	Part   string // "header", "length" or "content"
	Want   string
	Got    string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("store: snapshot %.12s: %s mismatch: want %s, file holds %s",
		e.Digest, e.Part, e.Want, e.Got)
}

// Store is a content-addressed snapshot store rooted at a directory. It
// implements snapshot.Store; all methods are safe for concurrent use,
// including across processes sharing the directory (every write
// publishes a whole file by atomic rename).
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]*Manifest // key digest → newest header
	byDig map[string]*Manifest // content digest → header

	recovery RecoveryStats
}

// RecoveryStats reports what the startup recovery sweep removed: temp
// files stranded by a crash mid-write, snapshot files whose header
// does not parse (only possible on filesystem damage — every file is
// published by atomic rename), and files of retired layouts.
type RecoveryStats struct {
	OrphanTmps   int `json:"orphan_tmps"`
	BadManifests int `json:"bad_manifests"`
	// RetiredFiles counts version 1's page chunks and manifests and the
	// pin markers of earlier stores.
	RetiredFiles int `json:"retired_files"`
}

// Open opens (creating if needed) a store rooted at dir, runs the
// crash-recovery sweep, and indexes the snapshot headers. The sweep
// removes temp files stranded by a crash mid-write, snapshot files
// whose header does not parse (a torn write), and the files it can
// name as a retired layout's (sweepRetired); all are safe to delete,
// as a stranded temp was never published. Headers that parse but do
// not name their file are skipped, not deleted (they may belong to a
// newer layout), and verification still guards every load. Every
// other file stays.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "snapshots"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:   dir,
		index: make(map[string]*Manifest),
		byDig: make(map[string]*Manifest),
	}
	ents, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			// Temp files exist only between CreateTemp and the
			// publishing rename; any found at open were stranded by a
			// crash and hold unreferenced, possibly torn bytes.
			if os.Remove(filepath.Join(dir, "snapshots", name)) == nil {
				s.recovery.OrphanTmps++
			}
		case ent.Type().IsRegular() && strings.HasSuffix(name, ".json") && isDigest(strings.TrimSuffix(name, ".json")):
			// A version 1 manifest.
			if os.Remove(filepath.Join(dir, "snapshots", name)) == nil {
				s.recovery.RetiredFiles++
			}
		case strings.HasSuffix(name, ".snap"):
			digest := strings.TrimSuffix(name, ".snap")
			m, err := s.readHeader(digest)
			var torn *tornHeaderError
			switch {
			case errors.As(err, &torn):
				if os.Remove(s.snapPath(digest)) == nil {
					s.recovery.BadManifests++
				}
			case err == nil && m.names(digest):
				s.admit(m)
			}
		}
	}
	s.recovery.RetiredFiles += sweepRetired(dir)
	if n := s.recovery.OrphanTmps + s.recovery.BadManifests + s.recovery.RetiredFiles; n > 0 {
		obs.Add(obs.CStoreOrphanSweep, uint64(n))
	}
	return s, nil
}

// sweepRetired deletes the files outside snapshots/ that a retired
// layout of this store wrote, and returns how many it deleted: version
// 1's page chunks, chunks/<aa>/<digest> where aa is the digest's first
// two digits, and the pin markers pins/<digest>. Each directory goes
// too once they leave it empty.
func sweepRetired(dir string) int {
	n := removeEmptied(filepath.Join(dir, "pins"), isDigest)
	chunks := filepath.Join(dir, "chunks")
	subs, err := os.ReadDir(chunks)
	for _, sub := range subs {
		if aa := sub.Name(); sub.IsDir() {
			n += removeEmptied(filepath.Join(chunks, aa), func(name string) bool {
				return isDigest(name) && name[:2] == aa
			})
		}
	}
	if err == nil {
		os.Remove(chunks) // fails, keeping it, unless it is now empty
	}
	return n
}

// removeEmptied deletes the regular files of dir whose names match,
// then dir itself if that left it empty, and returns how many files it
// deleted.
func removeEmptied(dir string, match func(name string) bool) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		if ent.Type().IsRegular() && match(ent.Name()) && os.Remove(filepath.Join(dir, ent.Name())) == nil {
			n++
		}
	}
	os.Remove(dir) // fails, keeping it, unless it is now empty
	return n
}

// isDigest reports whether name is a SHA-256 in lower-case hex, the
// form of every digest the store writes.
func isDigest(name string) bool {
	return len(name) == 2*sha256.Size && strings.Trim(name, "0123456789abcdef") == ""
}

func (s *Store) readHeader(digest string) (*Manifest, error) {
	f, err := os.Open(s.snapPath(digest))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := decodeHeader(f)
	return m, err
}

// Recovery returns what the startup sweep cleaned up.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) admit(m *Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byDig[m.Digest] = m
	if prev := s.index[m.KeyDigest]; prev == nil || m.CreatedUnix >= prev.CreatedUnix {
		s.index[m.KeyDigest] = m
	}
}

func (s *Store) snapPath(digest string) string {
	return filepath.Join(s.dir, "snapshots", digest+".snap")
}

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

// Save persists the snapshot as one file, named by the digest it
// commits to, and returns that digest. Saving content already on disk
// rewrites the whole file, so a re-save heals a file that fails
// verification. Every call counts once: as a save, or as a save
// failure (the pool persists in the background and drops the error, so
// the counter is how an unwritable store shows).
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
	st := snap.State()
	body, err := st.Serialize()
	if err != nil {
		return "", fmt.Errorf("store: serialize snapshot: %w", err)
	}
	opts := st.Options()
	m := &Manifest{
		Version:     fileVersion,
		KeyDigest:   key.Digest,
		Key:         key.Norm(),
		ImageDigest: st.ImageDigest(),
		CPUs:        opts.Config.CPUs(),
		BootCycles:  snap.BootCycles(),
		CreatedUnix: time.Now().Unix(),
		StateSize:   len(body),
		Options: OptionsManifest{
			Scheme:       int(opts.Config.Scheme),
			ForwardCFI:   opts.Config.ForwardCFI,
			DFI:          opts.Config.DFI,
			ZeroModifier: opts.Config.ZeroModifier,
			CPUs:         opts.Config.CPUs(),
			Seed:         opts.Seed,
			Compat:       opts.V80(),
			V80:          opts.V80(),
			Threshold:    opts.FailureThreshold,
		},
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
	if err := writeFileAtomic(s.snapPath(m.Digest), append(hdr, '\n'), body); err != nil {
		return "", fmt.Errorf("store: write snapshot: %w", err)
	}
	s.admit(m)
	return m.Digest, nil
}

// Load returns the newest verified snapshot persisted for the key's
// configuration, plus its content digest, or snapshot.ErrNotFound.
// Every call is a physical, verified load: the pool arms each key once
// and serves its forks from the result, so it never asks twice. A
// failed load counts as a verify failure only when the file's content
// was refused; a file that could not be read is a load error.
func (s *Store) Load(key snapshot.Key) (*snapshot.Snapshot, string, error) {
	s.mu.Lock()
	m := s.index[key.Digest]
	s.mu.Unlock()
	if m == nil {
		obs.Add(obs.CStoreMiss, 1)
		return nil, "", snapshot.ErrNotFound
	}
	t0 := time.Now()
	snap, err := s.load(m.Digest)
	if err != nil {
		var ve *VerifyError
		var de *kernel.StateDecodeError
		if errors.As(err, &ve) || errors.As(err, &de) {
			obs.Add(obs.CStoreVerifyFail, 1)
		} else {
			obs.Add(obs.CStoreLoadError, 1)
		}
		return nil, "", err
	}
	obs.Add(obs.CStoreHit, 1)
	loadHist.ObserveSince(t0)
	return snap, m.Digest, nil
}

// load reads the snapshot file named digest once, verifies it whole,
// then reconstructs the kernel state (rebuilding and §4.1-verifying the
// image from its build options).
func (s *Store) load(digest string) (*snapshot.Snapshot, error) {
	if err := fault.ErrAt(fault.StoreRead); err != nil {
		return nil, fmt.Errorf("store: snapshot %.12s: %w", digest, err)
	}
	raw, err := os.ReadFile(s.snapPath(digest))
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %.12s: %w", digest, err)
	}
	fault.Corrupt(fault.StoreCorrupt, raw)
	m, n, err := decodeHeader(bytes.NewReader(raw))
	if err != nil {
		return nil, &VerifyError{Digest: digest, Part: "header", Want: "a JSON header line", Got: err.Error()}
	}
	if !m.names(digest) {
		return nil, &VerifyError{Digest: digest, Part: "header",
			Want: fmt.Sprintf("version %d digest %s", fileVersion, digest),
			Got:  fmt.Sprintf("version %d digest %s", m.Version, m.Digest)}
	}
	// The lengths are checked before anything is sliced or sized by
	// them; the header is at most maxHeaderSize bytes, so the page
	// count cannot overflow the product.
	body := raw[n:]
	if rest := len(body) - m.StateSize; m.StateSize < 0 || rest < 0 || rest != len(m.Pages)*mem.PageSize {
		return nil, &VerifyError{Digest: digest, Part: "length",
			Want: fmt.Sprintf("%d state bytes and %d pages", m.StateSize, len(m.Pages)),
			Got:  fmt.Sprintf("%d body bytes", len(body))}
	}
	if got := m.contentDigest(body); got != digest {
		return nil, &VerifyError{Digest: digest, Part: "content", Want: digest, Got: got}
	}
	// The pages alias the file buffer, which nothing else holds: it
	// becomes the read-only copy-on-write base of every fork.
	pages := make(map[uint64]*[mem.PageSize]byte, len(m.Pages))
	for i, pn := range m.Pages {
		pages[pn] = (*[mem.PageSize]byte)(body[m.StateSize+i*mem.PageSize:])
	}
	st, err := kernel.DeserializeState(body[:m.StateSize], pages)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %.12s: %w", digest, err)
	}
	return snapshot.FromState(st), nil
}

// Info summarizes one persisted snapshot for listings.
type Info struct {
	Digest      string `json:"digest"`
	KeyDigest   string `json:"key_digest"`
	Key         string `json:"key"`
	ImageDigest string `json:"image_digest"`
	Pages       int    `json:"pages"`
	CPUs        int    `json:"cpus"`
	BootCycles  uint64 `json:"boot_cycles"`
	CreatedUnix int64  `json:"created_unix"`
}

// List returns every persisted snapshot, newest first.
func (s *Store) List() []Info {
	s.mu.Lock()
	ms := make([]*Manifest, 0, len(s.byDig))
	for _, m := range s.byDig {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].CreatedUnix != ms[j].CreatedUnix {
			return ms[i].CreatedUnix > ms[j].CreatedUnix
		}
		return ms[i].Digest < ms[j].Digest
	})
	out := make([]Info, 0, len(ms))
	for _, m := range ms {
		out = append(out, Info{
			Digest:      m.Digest,
			KeyDigest:   m.KeyDigest,
			Key:         m.Key,
			ImageDigest: m.ImageDigest,
			Pages:       len(m.Pages),
			CPUs:        m.CPUs,
			BootCycles:  m.BootCycles,
			CreatedUnix: m.CreatedUnix,
		})
	}
	return out
}

// ManifestFor returns the header of the snapshot persisted under the
// content digest.
func (s *Store) ManifestFor(digest string) (*Manifest, error) {
	s.mu.Lock()
	m := s.byDig[digest]
	s.mu.Unlock()
	if m == nil {
		return nil, snapshot.ErrNotFound
	}
	cp := *m
	cp.Pages = append([]uint64(nil), m.Pages...)
	return &cp, nil
}

// Delete removes the snapshot's file, and with it every byte the
// snapshot held. A snapshot already loaded lives on in memory: the
// pool's armed key and every machine forked from it keep running.
func (s *Store) Delete(digest string) error {
	s.mu.Lock()
	m := s.byDig[digest]
	s.mu.Unlock()
	if m == nil {
		return snapshot.ErrNotFound
	}
	if err := os.Remove(s.snapPath(digest)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete %s: %w", digest, err)
	}
	s.mu.Lock()
	delete(s.byDig, digest)
	if idx := s.index[m.KeyDigest]; idx != nil && idx.Digest == digest {
		delete(s.index, m.KeyDigest)
		// Another snapshot of the key may remain; re-elect the newest.
		for _, other := range s.byDig {
			if other.KeyDigest == m.KeyDigest {
				if cur := s.index[m.KeyDigest]; cur == nil || other.CreatedUnix >= cur.CreatedUnix {
					s.index[m.KeyDigest] = other
				}
			}
		}
	}
	s.mu.Unlock()
	obs.Add(obs.CStoreEvict, 1)
	return nil
}
