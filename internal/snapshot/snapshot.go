// Package snapshot implements copy-on-write snapshotting of booted
// simulated machines: capture a kernel — freshly booted or mid-execution
// — into an immutable Snapshot, Fork independent machines from it in
// O(live host objects) with zero guest-memory copying, and Reset a
// dirtied machine back to the captured point in O(pages touched).
//
// Every experiment cell, benchmark repetition and attack run previously
// paid the full construction cost — codegen, the §4.1 static-analysis
// gate, and boot — even though the post-boot state is identical every
// time. A Snapshot pays that cost once; forks and resets replay none of
// it. Because construction is deterministic, a forked machine is
// indistinguishable from a freshly booted one: same cycle counters, same
// PRNG stream position, same memory image (pinned by the determinism
// tests in this package).
//
// The Pool layers a warm-machine cache on top: machines are keyed by
// their build options (protection level, seed, threshold, compat mode),
// booted once per key, and handed out as forks or reset idle machines.
// The lmbench/workload/figures suites, core.Replicate and the attack
// campaign driver all draw from the shared pool.
package snapshot

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/fault"
	"camouflage/internal/kernel"
	"camouflage/internal/obs"
)

// Phase-latency histograms (DESIGN.md §11): every build+verify+boot,
// copy-on-write fork and snapshot reset is observed, so the fleet view
// shows where machine-provisioning time actually goes. Cold paths only
// — nothing on the instruction loop observes a histogram.
var (
	bootHist = obs.NewHistogram("camouflage_snapshot_boot_seconds",
		"Latency of full machine provisioning (build + verify + boot).", obs.DefaultLatencyBuckets)
	verifyHist = obs.NewHistogram("camouflage_snapshot_verify_seconds",
		"Latency of the §4.1 static-analysis image verification.", obs.DefaultLatencyBuckets)
	forkHist = obs.NewHistogram("camouflage_snapshot_fork_seconds",
		"Latency of copy-on-write machine forks.", obs.DefaultLatencyBuckets)
	resetHist = obs.NewHistogram("camouflage_snapshot_reset_seconds",
		"Latency of machine resets back to their snapshot.", obs.DefaultLatencyBuckets)
)

// Snapshot is an immutable capture of a booted machine. Any number of
// goroutines may Fork from (or Reset machines to) the same Snapshot
// concurrently.
type Snapshot struct {
	st *kernel.State
}

// Take captures the kernel's complete state — CPU, PAuth keys, MMU
// stages, hypervisor lockdown, devices, host mirrors, and guest RAM
// frozen copy-on-write. The kernel keeps running on a fresh overlay;
// taking a snapshot never perturbs it.
func Take(k *kernel.Kernel) *Snapshot {
	return &Snapshot{st: k.CaptureState()}
}

// Fork builds an independent machine resuming from the captured state:
// new CPU, bus, MMU and device mirrors; guest RAM shared copy-on-write
// with the snapshot. No codegen, verification or boot runs.
func (s *Snapshot) Fork() (*kernel.Kernel, error) {
	t0 := time.Now() //camo:nondet latency histogram sample; guest state is untouched
	k, err := kernel.NewFromState(s.st)
	if err != nil {
		return nil, err
	}
	obs.Add(obs.CPoolMiss, 1)
	forkHist.ObserveSince(t0)
	return k, nil
}

// Reset rewinds a machine to the captured state in O(pages touched),
// discarding everything it ran since. The machine must descend from the
// same built image (it was forked from this snapshot, or this snapshot
// was taken from it).
func (s *Snapshot) Reset(k *kernel.Kernel) error {
	t0 := time.Now() //camo:nondet latency histogram sample; guest state is untouched
	if err := k.RestoreState(s.st); err != nil {
		return err
	}
	resetHist.ObserveSince(t0)
	return nil
}

// FrozenPages returns the size of the copy-on-write base in pages.
func (s *Snapshot) FrozenPages() int { return s.st.FrozenPages() }

// BootCycles returns the captured machine's boot cost.
func (s *Snapshot) BootCycles() uint64 { return s.st.BootCycles() }

// BootOptions returns a boot closure for Pool.Acquire that builds,
// §4.1-verifies and boots a kernel with the given options (the standard
// pairing with KeyFor). Verification is mandatory on every path
// that can seed the shared pool: core.Replicate and the suites share
// one key space, so a key warmed here must be as trustworthy as one
// warmed through core.New.
func BootOptions(opts kernel.Options) func() (*kernel.Kernel, error) {
	return func() (*kernel.Kernel, error) {
		if err := fault.ErrAt(fault.PoolBoot); err != nil {
			return nil, err
		}
		t0 := time.Now() //camo:nondet boot latency histogram sample; guest state is untouched
		k, err := kernel.New(opts)
		if err != nil {
			return nil, err
		}
		tv := time.Now() //camo:nondet verify latency histogram sample; guest state is untouched
		if err := fault.ErrAt(fault.PoolVerify); err != nil {
			return nil, err
		}
		if err := kernel.VerifyImage(k.Img); err != nil {
			return nil, err
		}
		verifyHist.ObserveSince(tv)
		if err := k.Boot(); err != nil {
			return nil, err
		}
		bootHist.ObserveSince(t0)
		return k, nil
	}
}

// cellWorkers counts the goroutines running ForEach calls process-wide:
// each loop's caller and each helper it recruited.
var cellWorkers atomic.Int64

// ForEach runs f(0) … f(n-1) and returns the lowest-index error. It is
// the one cell loop of the experiment runner, the figure suites, the
// attack matrix and the campaign driver, and it picks its own
// parallelism from what it observes: the caller runs indices itself and
// recruits helpers only while fewer goroutines run cells, process-wide,
// than there are Ps (runtime.GOMAXPROCS). So a loop at one P, or one that
// starts while concurrent jobs already keep every P running cells, is a
// plain loop in index order, and a lone loop on a multi-core host fans
// out over every P. Cells are CPU-bound and each holds a live machine,
// so a worker beyond the Ps adds memory and hand-offs for little
// throughput. Callers assemble results by index, so output does not
// depend on the schedule, and every f has returned before ForEach does.
//
// Once ctx is done no new index starts (indices already running finish
// normally — machines are never torn down mid-instruction) and
// ctx.Err() is reported unless an earlier index failed on its own. That
// holds also when ctx ends while the last calls run, after every index
// has started, as it can once the calls fan out: a loop reports success
// only if ctx was still live when it ended. This is how a request
// deadline or the daemon's run watchdog reaches every experiment, cell
// and strike.
func ForEach(ctx context.Context, n int, f func(i int) error) error {
	procs := int64(runtime.GOMAXPROCS(0))
	cellWorkers.Add(1)
	defer cellWorkers.Add(-1)
	helpers := 0
	for helpers < n-1 && cellWorkers.Add(1) <= procs {
		helpers++
	}
	if helpers < n-1 {
		cellWorkers.Add(-1) // the claim that found every P busy
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// Claim-then-check: a skipped index records ctx.Err() in its
			// slot, so cancellation surfaces through the same
			// lowest-index-error scan as real failures. Indices are
			// claimed in order, so a worker may stop at its first error:
			// every lower index has been claimed and runs.
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			if errs[i] = f(i); errs[i] != nil {
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		//camo:nondet helpers fork independent machines; per-slot error slices keep the result order-stable
		go func() {
			defer wg.Done()
			defer cellWorkers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
