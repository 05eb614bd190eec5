// Package store is the content-addressed, on-disk snapshot and image
// store behind `camouflaged -store-dir` (DESIGN.md §12): booted machine
// snapshots persist across process restarts, so a daemon restarted
// against a populated store serves its first experiment in milliseconds
// — a verified load and a copy-on-write fork — instead of paying
// codegen, the §4.1 static-analysis gate and boot again.
//
// Layout under the store directory:
//
//	chunks/<aa>/<digest>        content-addressed blobs: every frozen
//	                            4KiB RAM page and every serialized state
//	                            record, named by its SHA-256. Snapshots
//	                            of the same image share almost all pages,
//	                            so N snapshots cost ~1 image of chunks.
//	snapshots/<digest>.json     manifests, named by the whole-snapshot
//	                            content digest they commit to.
//	pins/<digest>               pin markers: pinned snapshots survive GC
//	                            and Delete.
//
// Nothing is trusted on the way back in. Every Load recomputes the
// whole-snapshot digest from the manifest, the state record's SHA-256,
// and each page chunk's SHA-256 before a single fork is served; any
// mismatch is a typed *VerifyError and the snapshot is refused. The
// kernel image itself is never stored — it is rebuilt deterministically
// from the manifest's build options and §4.1-verified, exactly like a
// fresh boot.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// manifestVersion guards the manifest schema; bump on layout changes.
const manifestVersion = 1

// PageRef binds one frozen RAM page to its content-addressed chunk.
type PageRef struct {
	PN    uint64 `json:"pn"`
	Chunk string `json:"chunk"`
}

// OptionsManifest is the human-readable build-options block. The
// authoritative options travel inside the state record; this block is
// for operators reading manifests and for /v1/snapshots listings.
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

// Manifest describes one persisted snapshot. Its Digest commits to the
// key, the rebuilt image's identity, the state record and every page
// chunk — the whole-snapshot SHA-256 that Load verifies.
type Manifest struct {
	Version     int             `json:"version"`
	Digest      string          `json:"digest"`
	KeyDigest   string          `json:"key_digest"`
	Key         string          `json:"key"`
	Options     OptionsManifest `json:"options"`
	ImageDigest string          `json:"image_digest"`
	StateChunk  string          `json:"state_chunk"`
	StateSize   int             `json:"state_size"`
	Pages       []PageRef       `json:"pages"`
	CPUs        int             `json:"cpus"`
	BootCycles  uint64          `json:"boot_cycles"`
	CreatedUnix int64           `json:"created_unix"`
}

// contentDigest computes the whole-snapshot digest a manifest commits
// to: a canonical byte string over the configuration identity, image
// identity, state record and the ordered page→chunk map.
func (m *Manifest) contentDigest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "camouflage-snapshot-v%d\n", m.Version)
	fmt.Fprintf(&b, "key %s\n", m.KeyDigest)
	fmt.Fprintf(&b, "image %s\n", m.ImageDigest)
	fmt.Fprintf(&b, "state %s %d\n", m.StateChunk, m.StateSize)
	for _, pg := range m.Pages {
		fmt.Fprintf(&b, "page %d %s\n", pg.PN, pg.Chunk)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// VerifyError reports an integrity failure: the named part of the
// snapshot hashed to Got where the manifest committed to Want. A
// snapshot that fails verification is never served.
type VerifyError struct {
	Digest string // snapshot content digest (as named on disk)
	Part   string // "manifest", "state", or "page <pn>"
	Want   string
	Got    string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("store: snapshot %.12s: %s hash mismatch: manifest commits to %.12s, content is %.12s",
		e.Digest, e.Part, e.Want, e.Got)
}

// Store is a content-addressed snapshot store rooted at a directory. It
// implements snapshot.Store; all methods are safe for concurrent use,
// including across processes sharing the directory (chunk writes are
// idempotent, manifest writes atomic).
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]*Manifest // key digest → newest manifest
	byDig map[string]*Manifest // content digest → manifest

	// quarFails counts consecutive load failures per content digest;
	// at QuarantineThreshold the digest moves to quarantined and Load
	// fast-fails with *QuarantineError instead of re-verifying a known
	// bad snapshot forever (the pool degrades to a fresh boot).
	quarFails   map[string]int
	quarantined map[string]bool

	recovery RecoveryStats
}

// RecoveryStats reports what the startup recovery sweep found: temp
// files stranded by a crash mid-write, and manifests torn by a crash
// mid-rename (only possible on pre-fsync stores or filesystem damage —
// every manifest is published by atomic rename).
type RecoveryStats struct {
	OrphanTmps   int `json:"orphan_tmps"`
	BadManifests int `json:"bad_manifests"`
}

// QuarantineThreshold is how many consecutive load failures quarantine
// a snapshot digest.
const QuarantineThreshold = 3

// QuarantineError reports a load refused because the digest is
// quarantined: it failed verification QuarantineThreshold times in a
// row and will not be re-verified until deleted or overwritten.
type QuarantineError struct {
	Digest   string
	Failures int
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("store: snapshot %.12s quarantined after %d consecutive load failures",
		e.Digest, e.Failures)
}

// Open opens (creating if needed) a store rooted at dir, runs the
// crash-recovery sweep, and indexes its manifests. The sweep removes
// temp files stranded by a crash mid-write and manifests that no longer
// parse (a torn write); both are safe to delete — a stranded temp was
// never published, and chunks behind a dead manifest are reclaimed by
// GC. Manifests that parse but are self-inconsistent are skipped, not
// deleted (they may belong to a newer schema), and verification still
// guards every load.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"chunks", "snapshots", "pins"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	s := &Store{
		dir:         dir,
		index:       make(map[string]*Manifest),
		byDig:       make(map[string]*Manifest),
		quarFails:   make(map[string]int),
		quarantined: make(map[string]bool),
	}
	s.sweepOrphans()
	ents, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		digest := strings.TrimSuffix(name, ".json")
		m, err := s.readManifest(digest)
		if err != nil {
			var torn *tornManifestError
			if errors.As(err, &torn) {
				if os.Remove(s.manifestPath(digest)) == nil {
					s.recovery.BadManifests++
				}
			}
			continue
		}
		s.admit(m)
	}
	if n := s.recovery.OrphanTmps + s.recovery.BadManifests; n > 0 {
		obs.Add(obs.CStoreOrphanSweep, uint64(n))
	}
	return s, nil
}

// sweepOrphans removes every .tmp-* file under chunks/ and snapshots/.
// Temp files exist only between CreateTemp and the publishing rename;
// any found at open were stranded by a crash and hold unreferenced,
// possibly torn bytes.
func (s *Store) sweepOrphans() {
	sweepDir := func(dir string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, ent := range ents {
			if strings.HasPrefix(ent.Name(), ".tmp-") {
				if os.Remove(filepath.Join(dir, ent.Name())) == nil {
					s.recovery.OrphanTmps++
				}
			}
		}
	}
	sweepDir(filepath.Join(s.dir, "snapshots"))
	root := filepath.Join(s.dir, "chunks")
	if dirs, err := os.ReadDir(root); err == nil {
		for _, d := range dirs {
			if d.IsDir() {
				sweepDir(filepath.Join(root, d.Name()))
			}
		}
	}
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

func (s *Store) chunkPath(digest string) string {
	return filepath.Join(s.dir, "chunks", digest[:2], digest)
}

func (s *Store) manifestPath(digest string) string {
	return filepath.Join(s.dir, "snapshots", digest+".json")
}

func (s *Store) pinPath(digest string) string {
	return filepath.Join(s.dir, "pins", digest)
}

// writeFileAtomic publishes data at path crash-consistently: temp file
// in the same directory, fsync, rename, directory fsync. A crash at any
// point leaves either the old content or the new — never a torn file —
// plus at worst a stranded temp for the recovery sweep. The store.crash
// fault point models exactly that crash: it strands the temp file and
// fails; store.rename fails the publish cleanly.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
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

// writeChunk stores blob under its SHA-256 unless already present,
// reporting whether a write happened. Concurrent writers of the same
// chunk are harmless: content-addressing makes the race write identical
// bytes, and the atomic publish keeps each write whole.
func (s *Store) writeChunk(blob []byte) (digest string, wrote bool, err error) {
	sum := sha256.Sum256(blob)
	digest = hex.EncodeToString(sum[:])
	path := s.chunkPath(digest)
	if _, err := os.Stat(path); err == nil {
		return digest, false, nil
	}
	if err := fault.ErrAt(fault.StoreChunkWrite); err != nil {
		return "", false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", false, err
	}
	if err := writeFileAtomic(path, blob); err != nil {
		return "", false, err
	}
	return digest, true, nil
}

func (s *Store) readChunk(digest string) ([]byte, error) {
	if err := fault.ErrAt(fault.StoreChunkRead); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(s.chunkPath(digest))
	if err != nil {
		return nil, err
	}
	fault.Corrupt(fault.StoreChunkCorrupt, raw)
	return raw, nil
}

// tornManifestError marks a manifest that does not even parse — the
// signature of a torn write, which the open-time sweep deletes.
type tornManifestError struct{ err error }

func (e *tornManifestError) Error() string { return e.err.Error() }
func (e *tornManifestError) Unwrap() error { return e.err }

func (s *Store) readManifest(digest string) (*Manifest, error) {
	raw, err := os.ReadFile(s.manifestPath(digest))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, &tornManifestError{fmt.Errorf("store: manifest %s: %w", digest, err)}
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest %s: version %d, want %d", digest, m.Version, manifestVersion)
	}
	if m.Digest != digest {
		return nil, fmt.Errorf("store: manifest %s claims digest %s", digest, m.Digest)
	}
	// Chunk names become paths (chunkPath), so admit only the names
	// writeChunk creates: a short name would not split into a fan-out
	// directory, a path-like one would read outside the store.
	if !isChunkName(m.StateChunk) {
		return nil, fmt.Errorf("store: manifest %s: state chunk %q is not a SHA-256", digest, m.StateChunk)
	}
	for _, pg := range m.Pages {
		if !isChunkName(pg.Chunk) {
			return nil, fmt.Errorf("store: manifest %s: page %d chunk %q is not a SHA-256", digest, pg.PN, pg.Chunk)
		}
	}
	return &m, nil
}

// isChunkName reports whether name is a chunk name writeChunk can
// create: a SHA-256 in 64 lowercase hex digits.
func isChunkName(name string) bool {
	if len(name) != 2*sha256.Size {
		return false
	}
	for _, c := range name {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Save persists the snapshot: the state record and every frozen page go
// into the chunk store (pages already present — other snapshots of the
// same image — are deduplicated, not rewritten), then the manifest
// commits to the whole set under its content digest. Returns the
// content digest. Saving an already-persisted snapshot is a cheap
// no-op rewrite of the manifest. Every call counts once: as a save, or
// as a save failure (the pool persists in the background and drops
// the error, so the counter is how an unwritable store shows).
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
	blob, err := st.Serialize()
	if err != nil {
		return "", fmt.Errorf("store: serialize snapshot: %w", err)
	}
	stateChunk, wrote, err := s.writeChunk(blob)
	if err != nil {
		return "", fmt.Errorf("store: write state chunk: %w", err)
	}
	written, deduped := uint64(0), uint64(0)
	if wrote {
		written++
	} else {
		deduped++
	}
	var pages []PageRef
	var pageErr error
	st.ForEachFrozenPage(func(pn uint64, pg *[mem.PageSize]byte) {
		if pageErr != nil {
			return
		}
		digest, wrote, err := s.writeChunk(pg[:])
		if err != nil {
			pageErr = err
			return
		}
		if wrote {
			written++
		} else {
			deduped++
		}
		pages = append(pages, PageRef{PN: pn, Chunk: digest})
	})
	if pageErr != nil {
		return "", fmt.Errorf("store: write page chunk: %w", pageErr)
	}
	obs.Add(obs.CStoreChunkWrite, written)
	obs.Add(obs.CStoreChunkDedup, deduped)

	opts := st.Options()
	m := &Manifest{
		Version:     manifestVersion,
		KeyDigest:   key.Digest,
		Key:         key.Norm(),
		ImageDigest: st.ImageDigest(),
		StateChunk:  stateChunk,
		StateSize:   len(blob),
		Pages:       pages,
		CPUs:        opts.Config.CPUs(),
		BootCycles:  snap.BootCycles(),
		CreatedUnix: time.Now().Unix(),
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
	m.Digest = m.contentDigest()

	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := fault.ErrAt(fault.StoreManifestWrite); err != nil {
		return "", fmt.Errorf("store: write manifest: %w", err)
	}
	if err := writeFileAtomic(s.manifestPath(m.Digest), append(raw, '\n')); err != nil {
		return "", fmt.Errorf("store: write manifest: %w", err)
	}
	s.admit(m)
	s.clearQuarantine(m.Digest)
	return m.Digest, nil
}

// Load returns the newest verified snapshot persisted for the key's
// configuration, plus its content digest, or snapshot.ErrNotFound.
// Every call is a physical, verified load: the pool arms each key once
// and serves its forks from the result, so it never asks twice.
func (s *Store) Load(key snapshot.Key) (*snapshot.Snapshot, string, error) {
	s.mu.Lock()
	m := s.index[key.Digest]
	if m == nil {
		s.mu.Unlock()
		obs.Add(obs.CStoreMiss, 1)
		return nil, "", snapshot.ErrNotFound
	}
	if s.quarantined[m.Digest] {
		fails := s.quarFails[m.Digest]
		s.mu.Unlock()
		return nil, "", &QuarantineError{Digest: m.Digest, Failures: fails}
	}
	s.mu.Unlock()
	return s.loadManifest(m)
}

// LoadDigest loads (and verifies) the snapshot with the given content
// digest regardless of which configuration it belongs to.
func (s *Store) LoadDigest(digest string) (*snapshot.Snapshot, error) {
	s.mu.Lock()
	m := s.byDig[digest]
	if m != nil && s.quarantined[digest] {
		fails := s.quarFails[digest]
		s.mu.Unlock()
		return nil, &QuarantineError{Digest: digest, Failures: fails}
	}
	s.mu.Unlock()
	if m == nil {
		obs.Add(obs.CStoreMiss, 1)
		return nil, snapshot.ErrNotFound
	}
	snap, _, err := s.loadManifest(m)
	return snap, err
}

// noteLoadFail records a failed physical load of a digest; the
// QuarantineThreshold'th consecutive failure quarantines it.
func (s *Store) noteLoadFail(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarFails[digest]++
	if s.quarFails[digest] >= QuarantineThreshold && !s.quarantined[digest] {
		s.quarantined[digest] = true
		obs.Add(obs.CStoreQuarantined, 1)
	}
}

// noteLoadOK resets the digest's consecutive-failure count.
func (s *Store) noteLoadOK(digest string) {
	s.mu.Lock()
	delete(s.quarFails, digest)
	s.mu.Unlock()
}

// clearQuarantine forgives a digest — a re-save published fresh content
// under it, so the failure history no longer describes what's on disk.
func (s *Store) clearQuarantine(digest string) {
	s.mu.Lock()
	delete(s.quarFails, digest)
	delete(s.quarantined, digest)
	s.mu.Unlock()
}

// Quarantined reports whether the snapshot digest is quarantined.
func (s *Store) Quarantined(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined[digest]
}

// loadManifest runs the physical load and keeps the quarantine ledger:
// consecutive failures of one digest quarantine it, any success wipes
// its record.
func (s *Store) loadManifest(m *Manifest) (*snapshot.Snapshot, string, error) {
	snap, digest, err := s.loadManifestPhys(m)
	if err != nil {
		s.noteLoadFail(m.Digest)
	} else {
		s.noteLoadOK(m.Digest)
	}
	return snap, digest, err
}

// loadManifestPhys is the physical load: verify the manifest's own
// content digest, the state record, and every page chunk, then
// reconstruct the kernel state (rebuilding and §4.1-verifying the image
// from its build options).
func (s *Store) loadManifestPhys(m *Manifest) (*snapshot.Snapshot, string, error) {
	t0 := time.Now()
	if got := m.contentDigest(); got != m.Digest {
		obs.Add(obs.CStoreVerifyFail, 1)
		return nil, "", &VerifyError{Digest: m.Digest, Part: "manifest", Want: m.Digest, Got: got}
	}
	blob, err := s.readChunk(m.StateChunk)
	if err != nil {
		obs.Add(obs.CStoreVerifyFail, 1)
		return nil, "", fmt.Errorf("store: snapshot %.12s: read state chunk: %w", m.Digest, err)
	}
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != m.StateChunk || len(blob) != m.StateSize {
		obs.Add(obs.CStoreVerifyFail, 1)
		return nil, "", &VerifyError{Digest: m.Digest, Part: "state", Want: m.StateChunk,
			Got: hex.EncodeToString(func() []byte { h := sha256.Sum256(blob); return h[:] }())}
	}
	pages := make(map[uint64]*[mem.PageSize]byte, len(m.Pages))
	for _, ref := range m.Pages {
		raw, err := s.readChunk(ref.Chunk)
		if err != nil {
			obs.Add(obs.CStoreVerifyFail, 1)
			return nil, "", fmt.Errorf("store: snapshot %.12s: read page %d: %w", m.Digest, ref.PN, err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != ref.Chunk || len(raw) != mem.PageSize {
			obs.Add(obs.CStoreVerifyFail, 1)
			return nil, "", &VerifyError{Digest: m.Digest, Part: fmt.Sprintf("page %d", ref.PN), Want: ref.Chunk, Got: got}
		}
		var pg [mem.PageSize]byte
		copy(pg[:], raw)
		pages[ref.PN] = &pg
	}
	st, err := kernel.DeserializeState(blob, pages)
	if err != nil {
		obs.Add(obs.CStoreVerifyFail, 1)
		return nil, "", fmt.Errorf("store: snapshot %.12s: %w", m.Digest, err)
	}
	obs.Add(obs.CStoreHit, 1)
	loadHist.ObserveSince(t0)
	return snapshot.FromState(st), m.Digest, nil
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
	Pinned      bool   `json:"pinned"`
	Quarantined bool   `json:"quarantined,omitempty"`
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
			Pinned:      s.Pinned(m.Digest),
			Quarantined: s.Quarantined(m.Digest),
			CreatedUnix: m.CreatedUnix,
		})
	}
	return out
}

// ManifestFor returns the manifest persisted under the content digest.
func (s *Store) ManifestFor(digest string) (*Manifest, error) {
	s.mu.Lock()
	m := s.byDig[digest]
	s.mu.Unlock()
	if m == nil {
		return nil, snapshot.ErrNotFound
	}
	cp := *m
	cp.Pages = append([]PageRef(nil), m.Pages...)
	return &cp, nil
}

// Pin marks or unmarks the snapshot as pinned. Pins persist on disk, so
// they survive restarts and guard both Delete and GC.
func (s *Store) Pin(digest string, pinned bool) error {
	s.mu.Lock()
	m := s.byDig[digest]
	s.mu.Unlock()
	if m == nil {
		return snapshot.ErrNotFound
	}
	if pinned {
		f, err := os.OpenFile(s.pinPath(digest), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: pin %s: %w", digest, err)
		}
		return f.Close()
	}
	if err := os.Remove(s.pinPath(digest)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: unpin %s: %w", digest, err)
	}
	return nil
}

// Pinned reports whether the snapshot is pinned.
func (s *Store) Pinned(digest string) bool {
	_, err := os.Stat(s.pinPath(digest))
	return err == nil
}

// ErrPinned reports a Delete refused because the snapshot is pinned.
var ErrPinned = errors.New("store: snapshot is pinned")

// Delete removes the snapshot's manifest (chunks are left for GC, since
// other snapshots may share them). Pinned snapshots are refused with
// ErrPinned — unpin first.
func (s *Store) Delete(digest string) error {
	s.mu.Lock()
	m := s.byDig[digest]
	s.mu.Unlock()
	if m == nil {
		return snapshot.ErrNotFound
	}
	if s.Pinned(digest) {
		return ErrPinned
	}
	if err := os.Remove(s.manifestPath(digest)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete %s: %w", digest, err)
	}
	s.mu.Lock()
	delete(s.byDig, digest)
	if idx := s.index[m.KeyDigest]; idx != nil && idx.Digest == digest {
		delete(s.index, m.KeyDigest)
		// Another manifest for the key may remain; re-elect the newest.
		for _, other := range s.byDig {
			if other.KeyDigest == m.KeyDigest {
				if cur := s.index[m.KeyDigest]; cur == nil || other.CreatedUnix >= cur.CreatedUnix {
					s.index[m.KeyDigest] = other
				}
			}
		}
	}
	s.mu.Unlock()
	s.clearQuarantine(digest)
	obs.Add(obs.CStoreEvict, 1)
	return nil
}

// GC deletes chunks no remaining manifest references, returning how
// many were removed. Pinned snapshots' chunks are referenced by their
// manifests, so pins transitively protect chunk data too.
func (s *Store) GC() (int, error) {
	s.mu.Lock()
	live := make(map[string]bool)
	for _, m := range s.byDig {
		live[m.StateChunk] = true
		for _, pg := range m.Pages {
			live[pg.Chunk] = true
		}
	}
	s.mu.Unlock()
	removed := 0
	root := filepath.Join(s.dir, "chunks")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return 0, fmt.Errorf("store: gc: %w", err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(root, d.Name()))
		if err != nil {
			return removed, fmt.Errorf("store: gc: %w", err)
		}
		for _, ent := range ents {
			name := ent.Name()
			if strings.HasPrefix(name, ".tmp-") || live[name] {
				continue
			}
			if err := os.Remove(filepath.Join(root, d.Name(), name)); err != nil {
				return removed, fmt.Errorf("store: gc: %w", err)
			}
			removed++
		}
	}
	if removed > 0 {
		obs.Add(obs.CStoreEvict, uint64(removed))
	}
	return removed, nil
}

// ImageInfo aggregates the persisted snapshots of one built image,
// surfacing what page-level dedup saves: TotalPages across snapshots
// versus UniqueChunks actually on disk.
type ImageInfo struct {
	ImageDigest  string   `json:"image_digest"`
	Snapshots    []string `json:"snapshots"`
	TotalPages   int      `json:"total_pages"`
	UniqueChunks int      `json:"unique_chunks"`
}

// Images groups persisted snapshots by the image they descend from.
func (s *Store) Images() []ImageInfo {
	s.mu.Lock()
	byImg := make(map[string][]*Manifest)
	for _, m := range s.byDig {
		byImg[m.ImageDigest] = append(byImg[m.ImageDigest], m)
	}
	s.mu.Unlock()
	imgs := make([]string, 0, len(byImg))
	for img := range byImg {
		imgs = append(imgs, img)
	}
	sort.Strings(imgs)
	out := make([]ImageInfo, 0, len(imgs))
	for _, img := range imgs {
		info := ImageInfo{ImageDigest: img}
		uniq := make(map[string]bool)
		ms := byImg[img]
		sort.Slice(ms, func(i, j int) bool { return ms[i].Digest < ms[j].Digest })
		for _, m := range ms {
			info.Snapshots = append(info.Snapshots, m.Digest)
			info.TotalPages += len(m.Pages)
			for _, pg := range m.Pages {
				uniq[pg.Chunk] = true
			}
		}
		info.UniqueChunks = len(uniq)
		out = append(out, info)
	}
	return out
}
