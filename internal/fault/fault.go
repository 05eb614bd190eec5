// Package fault is the deterministic fault-injection registry behind
// the chaos tests and the `-faults` flag of camouflaged and the CLIs
// (DESIGN.md §13). Injection points are threaded through the cold
// paths of the store (snapshot reads, writes, renames, a
// crash-before-rename that strands temp files exactly like a process
// death), the warm pool (boot and §4.1 verify failures, slow guests)
// and the client transport (connection resets, synthesized 5xx,
// stalls); the layers above are hardened to survive them, and the
// chaos suite pins that whenever retries succeed, output is
// byte-identical to a quiet run.
//
// Determinism is the whole point: a fault plan is a seed plus a set of
// per-point rules, and every decision is a pure function of (rule,
// per-point check ordinal, seed) — never of wall time or a shared PRNG
// another goroutine could advance. Two runs with the same plan that
// reach each injection point the same number of times inject exactly
// the same faults, so a chaos failure reproduces from its spec string
// alone. Count-based rules ("the first N", "every Kth") stay
// deterministic even when the points themselves are raced from many
// goroutines, because each point counts its own checks.
//
// When no registry is installed — every production run — an injection
// point costs one atomic pointer load and a branch, allocates nothing,
// and is held by benchgate's fault-overhead row (≤2% on the execution
// A/B, like the observability registry it is modeled on).
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/obs"
)

// Point names one injection site. The constants below are the complete
// set of sites threaded through the tree, and the only ones ParseSpec
// arms; Arm accepts any Point so tests can add private ones.
type Point string

// Injection sites, by subsystem.
const (
	// internal/store — the persistent snapshot store.
	StoreRead    Point = "store.read"    // fail a snapshot file read
	StoreCorrupt Point = "store.corrupt" // flip one deterministic bit in a snapshot file read back
	StoreWrite   Point = "store.write"   // fail a snapshot write before the temp file exists
	StoreRename  Point = "store.rename"  // fail the publishing rename (temp file cleaned up)
	StoreCrash   Point = "store.crash"   // crash-before-rename: temp file written and STRANDED
	StorePersist Point = "store.persist" // delay/fail Save at entry (async persist in flight)

	// internal/snapshot — the warm pool.
	PoolBoot    Point = "pool.boot"    // fail machine construction before codegen
	PoolVerify  Point = "pool.verify"  // fail the §4.1 static verification gate
	PoolAcquire Point = "pool.acquire" // delay Acquire (slow or wedged guest)

	// client — the HTTP transport.
	ClientReset Point = "client.reset" // connection reset before the request is sent
	Client5xx   Point = "client.5xx"   // synthesize a 503 with Retry-After: 0
	ClientStall Point = "client.stall" // delay the request in flight

	// internal/server — job execution.
	ServerJob Point = "server.job" // panic inside an admitted job
)

// catalog is every Point above. ParseSpec arms nothing else, so a
// misspelt or retired name in a -faults plan fails to parse instead of
// arming a point no site checks.
var catalog = map[Point]bool{
	StoreRead: true, StoreCorrupt: true, StoreWrite: true, StoreRename: true, StoreCrash: true, StorePersist: true,
	PoolBoot: true, PoolVerify: true, PoolAcquire: true,
	ClientReset: true, Client5xx: true, ClientStall: true,
	ServerJob: true,
}

// ErrUnknownPoint reports a -faults plan naming a point outside the
// catalog.
var ErrUnknownPoint = errors.New("fault: unknown injection point")

// Rule decides when an armed point fires. The zero Rule fires on every
// check; First and Every restrict it. Delay is the sleep injected by
// SleepAt (points checked with ErrAt/Fire ignore it).
type Rule struct {
	// First fires only the first N checks of the point (0 = no limit).
	First uint64
	// Every fires only every Kth check (0 or 1 = every check). Combined
	// with First, the first N of the selected checks fire.
	Every uint64
	// Delay is the injected sleep for SleepAt points.
	Delay time.Duration
}

// Error is an injected failure. Layers above treat it exactly like the
// real fault it stands in for; tests unwrap it with errors.As to
// distinguish injected faults from genuine ones.
type Error struct {
	Point Point
	// N is the 1-based fire ordinal at this point.
	N uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure #%d", e.Point, e.N)
}

// rule is the armed state of one point.
type rule struct {
	spec   Rule
	checks uint64
	fired  uint64
}

// Registry is one fault plan: a seed plus per-point rules. All methods
// are safe for concurrent use.
type Registry struct {
	seed uint64

	mu    sync.Mutex
	rules map[Point]*rule
}

// NewRegistry returns an empty registry keyed by seed (the seed drives
// deterministic payload choices such as which bit a corruption flips).
func NewRegistry(seed uint64) *Registry {
	return &Registry{seed: seed, rules: make(map[Point]*rule)}
}

// Arm installs (or replaces) the rule for a point, resetting its
// counters.
func (r *Registry) Arm(p Point, spec Rule) {
	r.mu.Lock()
	r.rules[p] = &rule{spec: spec}
	r.mu.Unlock()
}

// Fired returns how many times the point has fired.
func (r *Registry) Fired(p Point) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ru := r.rules[p]; ru != nil {
		return ru.fired
	}
	return 0
}

// Checks returns how many times the point has been consulted (armed
// points only; unarmed checks are not counted).
func (r *Registry) Checks(p Point) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ru := r.rules[p]; ru != nil {
		return ru.checks
	}
	return 0
}

// Counts snapshots every armed point's fire count (operator logging
// after a chaos run).
func (r *Registry) Counts() map[Point]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Point]uint64, len(r.rules))
	for p, ru := range r.rules {
		out[p] = ru.fired
	}
	return out
}

// String renders the registry as a canonical spec (points sorted), for
// logs.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := []string{fmt.Sprintf("seed=%d", r.seed)}
	points := make([]string, 0, len(r.rules))
	for p := range r.rules {
		points = append(points, string(p))
	}
	sort.Strings(points)
	for _, p := range points {
		ru := r.rules[Point(p)]
		s := p + "="
		switch {
		case ru.spec.Every > 1:
			s += fmt.Sprintf("every:%d", ru.spec.Every)
		case ru.spec.First > 0:
			s += strconv.FormatUint(ru.spec.First, 10)
		default:
			s += "all"
		}
		if ru.spec.Delay > 0 {
			s += ":" + ru.spec.Delay.String()
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// check decides whether the point fires now, returning the 1-based fire
// ordinal and the rule's delay.
func (r *Registry) check(p Point) (n uint64, delay time.Duration, fire bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ru := r.rules[p]
	if ru == nil {
		return 0, 0, false
	}
	ru.checks++
	if ru.spec.Every > 1 && ru.checks%ru.spec.Every != 0 {
		return 0, 0, false
	}
	if ru.spec.First > 0 && ru.fired >= ru.spec.First {
		return 0, 0, false
	}
	ru.fired++
	obs.Add(obs.CFaultInjected, 1)
	return ru.fired, ru.spec.Delay, true
}

// active is the installed registry; nil means the fault layer is
// disabled and every injection point is a load-and-branch no-op.
var active atomic.Pointer[Registry]

// Install makes r the process-wide registry (nil disables injection).
func Install(r *Registry) { active.Store(r) }

// Disable removes the installed registry.
func Disable() { active.Store(nil) }

// Active returns the installed registry, or nil.
func Active() *Registry { return active.Load() }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Fire reports whether the point fires now. The disabled fast path is
// one atomic load and a branch.
func Fire(p Point) bool {
	r := active.Load()
	if r == nil {
		return false
	}
	_, _, fire := r.check(p)
	return fire
}

// ErrAt returns an injected *Error when the point fires, nil otherwise.
// A rule armed with a delay sleeps it before failing (slow-then-fail
// faults: a persist that wedges, then errors).
func ErrAt(p Point) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	n, delay, fire := r.check(p)
	if !fire {
		return nil
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return &Error{Point: p, N: n}
}

// SleepAt sleeps the armed delay when the point fires (slow guests,
// transport stalls). Points armed without a delay simply fire-count.
func SleepAt(p Point) {
	r := active.Load()
	if r == nil {
		return
	}
	if _, delay, fire := r.check(p); fire && delay > 0 {
		time.Sleep(delay)
	}
}

// PanicAt panics with an injected *Error when the point fires — the
// probe for per-job panic recovery.
func PanicAt(p Point) {
	r := active.Load()
	if r == nil {
		return
	}
	if n, _, fire := r.check(p); fire {
		panic(&Error{Point: p, N: n})
	}
}

// Corrupt flips one deterministic bit of data in place when the point
// fires, reporting whether it did. The bit is chosen by the registry
// seed, the point name and the fire ordinal, so a corruption campaign
// replays byte-for-byte.
func Corrupt(p Point, data []byte) bool {
	r := active.Load()
	if r == nil || len(data) == 0 {
		return false
	}
	n, _, fire := r.check(p)
	if !fire {
		return false
	}
	bit := splitmix64(r.seed^hashPoint(p)^n) % uint64(len(data)*8)
	data[bit/8] ^= 1 << (bit % 8)
	return true
}

// hashPoint folds a point name into the payload-choice stream (FNV-1a).
func hashPoint(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the canonical deterministic mixer (no shared state, no
// allocation).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ParseSpec builds a registry from a fault plan string — the `-faults`
// flag format:
//
//	seed=42,store.read=2,client.stall=3:50ms,pool.boot=every:3
//
// Comma-separated entries; `seed=N` keys the payload PRNG (default 1);
// every other entry is `<point>=<when>[:<delay>]`, where <point> is one
// of the Point constants (ErrUnknownPoint otherwise) and <when> is a
// count ("2" = the first two checks fire), "every:K" (every Kth check),
// or "all", and <delay> is a non-negative Go duration for sleep points.
// A plan that parses prints back through Registry.String as a spec that
// parses to the same rules.
func ParseSpec(spec string) (*Registry, error) {
	var seed uint64 = 1
	type armed struct {
		p    Point
		rule Rule
	}
	var rules []armed
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("fault: bad spec entry %q (want point=rule)", part)
		}
		if k == "seed" {
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			seed = s
			continue
		}
		if !catalog[Point(k)] {
			return nil, fmt.Errorf("%w %q", ErrUnknownPoint, k)
		}
		var ru Rule
		fields := strings.Split(v, ":")
		when := fields[0]
		rest := fields[1:]
		switch {
		case when == "all":
		case when == "every":
			if len(rest) == 0 {
				return nil, fmt.Errorf("fault: %s: every needs a count (every:K)", k)
			}
			n, err := strconv.ParseUint(rest[0], 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("fault: %s: bad every count %q", k, rest[0])
			}
			ru.Every = n
			rest = rest[1:]
		default:
			n, err := strconv.ParseUint(when, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("fault: %s: bad fire count %q", k, when)
			}
			ru.First = n
		}
		if len(rest) > 0 {
			d, err := time.ParseDuration(rest[0])
			if err != nil {
				return nil, fmt.Errorf("fault: %s: bad delay %q: %v", k, rest[0], err)
			}
			if d < 0 {
				return nil, fmt.Errorf("fault: %s: negative delay %q", k, rest[0])
			}
			ru.Delay = d
			rest = rest[1:]
		}
		if len(rest) > 0 {
			return nil, fmt.Errorf("fault: %s: trailing spec fields %v", k, rest)
		}
		rules = append(rules, armed{p: Point(k), rule: ru})
	}
	r := NewRegistry(seed)
	for _, a := range rules {
		r.Arm(a.p, a.rule)
	}
	return r, nil
}

// EnableSpec parses a fault plan and installs it process-wide; an empty
// spec is a no-op (the CLIs pass their -faults flag straight through).
func EnableSpec(spec string) (*Registry, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	r, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	Install(r)
	return r, nil
}
