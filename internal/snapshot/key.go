package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"camouflage/internal/kernel"
)

// Key identifies a pool/store entry: machines built with the same Key
// are interchangeable. The Digest is the SHA-256 of the normalized
// option string, known before any boot — it names the *configuration*;
// the store separately content-addresses each persisted snapshot, and
// its index maps configuration digests to snapshot content digests.
type Key struct {
	// Digest is the hex SHA-256 of the normalized option string.
	Digest string
	// Options are the (normalized) build options behind the digest, so
	// store misses can boot and store saves can write manifests without
	// re-threading options through every call site.
	Options kernel.Options
}

// KeyFor derives the typed pool key for the given build options. Every
// field that shapes the post-boot state participates, normalized by the
// kernel.New defaults (kernel.Options.Normalized), so two option sets
// share a key exactly when their booted machines are interchangeable.
func KeyFor(opts kernel.Options) Key {
	k := Key{Options: opts.Normalized()}
	sum := sha256.Sum256([]byte(k.Norm()))
	k.Digest = hex.EncodeToString(sum[:])
	return k
}

// Norm returns the human-readable normalized option string the digest
// is computed over (also the legacy pool-key format).
func (k Key) Norm() string {
	o := k.Options.Normalized()
	return fmt.Sprintf("scheme=%d fwd=%t dfi=%t zmod=%t seed=%d thr=%d compat=%t v80=%t cpus=%d",
		o.Config.Scheme, o.Config.ForwardCFI, o.Config.DFI, o.Config.ZeroModifier,
		o.Seed, o.FailureThreshold, bool(o.Compat), o.V80, o.Config.CPUs())
}

// ErrNotFound reports that a store holds no snapshot for the requested
// key or digest.
var ErrNotFound = errors.New("snapshot: not found in store")

// Store is the persistence surface the pool consults before booting. A
// nil Pool.Store keeps the pool purely in-memory — the store is an
// optional layer, not a requirement.
//
// Load returns the snapshot persisted for the key's configuration plus
// its content digest, or ErrNotFound. Implementations must verify
// integrity before returning (the pool serves forks from the result
// without further checks). Save persists the snapshot and returns its
// content digest; it must be safe for concurrent use.
type Store interface {
	Load(key Key) (*Snapshot, string, error)
	Save(key Key, s *Snapshot) (string, error)
}

// State exposes the captured kernel state for persistence. The state is
// immutable; the store serializes it without copying guest RAM.
func (s *Snapshot) State() *kernel.State { return s.st }

// FromState wraps an already-reconstructed state (a store load) as a
// Snapshot. Fork/Reset semantics are identical to a Take-captured one.
func FromState(st *kernel.State) *Snapshot { return &Snapshot{st: st} }
