// Package obs is the process-wide observability registry: engine
// counters, latency histograms, gauges, Prometheus text exposition and
// the structured run-trace layer (DESIGN.md §11).
//
// The design contract is that instrumentation must cost one plain
// uint64 add on the execution fast path, allocate nothing, and never
// perturb guest-visible state (so experiment output stays
// byte-identical with observability enabled):
//
//   - Hot paths bump plain, unsynchronized uint64 cells in a per-core
//     Local block owned by exactly one goroutine while a CPU runs
//     (the same ownership discipline as the CPU's registers).
//   - At CPU.Run exit the Local block is flushed with atomic adds into
//     a small set of cache-line-padded shard accumulators; scrapes read
//     only those atomics, so a concurrent /metrics scrape is race-free
//     and sees counters that are stale by at most one run budget.
//   - Cold paths (COW materialization, pool events, HTTP handling) add
//     atomically straight into a shard — off the instruction loop, the
//     atomic costs nothing that matters.
//
// Counters are identified by a static CounterID enum with a metadata
// table mapping each ID to its Prometheus family, help text and
// pre-rendered label set; several IDs may share one family (e.g. the
// per-key PAC counters, the per-cause trace exits), which is how the
// exposition grows labels without any runtime map lookups on the hot
// path.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// CounterID names one engine counter cell. The enum is static: hot
// paths index Local.V and the shard accumulators by it directly.
type CounterID int

// Engine counters. Grouped by subsystem; IDs sharing a family differ
// only in their pre-rendered label set.
const (
	// internal/cpu — execution pipeline.
	CRetired CounterID = iota
	CCycles
	CTLBHit
	CTLBMiss
	CBlockFill
	CBlockSever
	CChainFollow
	CTraceBuild
	CTraceEnter
	CTraceExitEnd
	CTraceExitBranch
	CTraceExitFault
	CTraceExitHazard
	CTraceExitIRQ
	CTraceExitBudget
	CTraceExitStop
	CTraceSeverEntry
	CTraceSeverStale
	CSlowFallback

	// internal/mmu — translation machinery.
	CHostRearm
	CS2Walk

	// internal/mem — physical memory.
	CCOWMaterialize

	// internal/pac — pointer authentication, per key.
	CPACAuthIA
	CPACAuthIB
	CPACAuthDA
	CPACAuthDB
	CPACAuthGA
	CPACFailIA
	CPACFailIB
	CPACFailDA
	CPACFailDB
	CPACFailGA
	CPACSignIA
	CPACSignIB
	CPACSignDA
	CPACSignDB
	CPACSignGA
	CPACQARMARun

	// internal/snapshot — warm pool.
	CPoolBoot
	CPoolHit
	CPoolMiss
	CPoolDrop
	CPoolEvict

	// internal/attack — differential campaign strikes.
	CCampaignStrikeRun
	CCampaignStrikeMemo

	// internal/store — persistent snapshot store.
	CStoreHit
	CStoreMiss
	CStoreLoadError
	CStoreSave
	CStoreSaveFail
	CStoreVerifyFail
	CStoreEvict

	// internal/server — queue and lease lifecycle.
	CQueueRejected
	CLeaseIssued
	CLeaseReleased
	CLeaseExpired

	// Failure model (DESIGN.md §13): injection, recovery, degradation.
	CFaultInjected
	CBootRetry
	CPanicRecovered
	CWatchdogCancel
	CClientRetry
	CStoreOrphanSweep

	// NumCounters sizes every counter array; keep it last.
	NumCounters
)

// counterMeta maps a CounterID to its exposition identity.
type counterMeta struct {
	family string // Prometheus metric family name
	help   string // HELP text, emitted once per family
	labels string // pre-rendered label set without braces ("" for none)
}

var counterMetas = [NumCounters]counterMeta{
	CRetired:     {"camouflage_cpu_instructions_retired_total", "Guest instructions retired across all simulated CPUs.", ""},
	CCycles:      {"camouflage_cpu_cycles_total", "Simulated cycles across all simulated CPUs.", ""},
	CTLBHit:      {"camouflage_cpu_tlb_lookups_total", "Software TLB lookups by result.", `result="hit"`},
	CTLBMiss:     {"camouflage_cpu_tlb_lookups_total", "Software TLB lookups by result.", `result="miss"`},
	CBlockFill:   {"camouflage_cpu_block_cache_fills_total", "Decoded basic blocks inserted into per-CPU block caches.", ""},
	CBlockSever:  {"camouflage_cpu_block_cache_severs_total", "Code-page generation bumps severing cached blocks (guest stores into code pages).", ""},
	CChainFollow: {"camouflage_cpu_chain_follows_total", "Block entries served by the entry memo instead of a full fetch.", ""},
	CTraceBuild:  {"camouflage_cpu_traces_built_total", "Superblock traces fused from hot blocks.", ""},
	CTraceEnter:  {"camouflage_cpu_trace_enters_total", "Entries into fused superblock traces (one-block runs excluded).", ""},

	CTraceExitEnd:    {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="end"`},
	CTraceExitBranch: {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="branch"`},
	CTraceExitFault:  {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="fault"`},
	CTraceExitHazard: {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="hazard"`},
	CTraceExitIRQ:    {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="irq"`},
	CTraceExitBudget: {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="budget"`},
	CTraceExitStop:   {"camouflage_cpu_trace_exits_total", "Exits of fused traces and one-block runs from the trace executor, by cause.", `cause="stop"`},
	CTraceSeverEntry: {"camouflage_cpu_trace_severs_total", "Superblock traces rejected or dropped by validity checks.", `cause="entry"`},
	CTraceSeverStale: {"camouflage_cpu_trace_severs_total", "Superblock traces rejected or dropped by validity checks.", `cause="stale"`},
	CSlowFallback:    {"camouflage_cpu_trace_slow_fallbacks_total", "Instructions the trace executor retired through the generic slow tier, in fused traces and one-block runs.", ""},

	CHostRearm: {"camouflage_mmu_hostptr_rearms_total", "Host-pointer TLB entries re-armed after a physical-memory generation bump.", ""},
	CS2Walk:    {"camouflage_mmu_stage2_walks_total", "Full translation walks (TLB miss, stage-1 + stage-2 check).", ""},

	CCOWMaterialize: {"camouflage_mem_cow_materializations_total", "Copy-on-write page materializations.", ""},

	CPACAuthIA: {"camouflage_pac_auths_total", "Pointer authentications by key.", `key="IA"`},
	CPACAuthIB: {"camouflage_pac_auths_total", "Pointer authentications by key.", `key="IB"`},
	CPACAuthDA: {"camouflage_pac_auths_total", "Pointer authentications by key.", `key="DA"`},
	CPACAuthDB: {"camouflage_pac_auths_total", "Pointer authentications by key.", `key="DB"`},
	CPACAuthGA: {"camouflage_pac_auths_total", "Pointer authentications by key.", `key="GA"`},
	CPACFailIA: {"camouflage_pac_auth_failures_total", "Pointer authentication failures by key.", `key="IA"`},
	CPACFailIB: {"camouflage_pac_auth_failures_total", "Pointer authentication failures by key.", `key="IB"`},
	CPACFailDA: {"camouflage_pac_auth_failures_total", "Pointer authentication failures by key.", `key="DA"`},
	CPACFailDB: {"camouflage_pac_auth_failures_total", "Pointer authentication failures by key.", `key="DB"`},
	CPACFailGA: {"camouflage_pac_auth_failures_total", "Pointer authentication failures by key.", `key="GA"`},
	CPACSignIA: {"camouflage_pac_signs_total", "Pointer signs by key.", `key="IA"`},
	CPACSignIB: {"camouflage_pac_signs_total", "Pointer signs by key.", `key="IB"`},
	CPACSignDA: {"camouflage_pac_signs_total", "Pointer signs by key.", `key="DA"`},
	CPACSignDB: {"camouflage_pac_signs_total", "Pointer signs by key.", `key="DB"`},
	CPACSignGA: {"camouflage_pac_signs_total", "Pointer signs by key.", `key="GA"`},

	CPACQARMARun: {"camouflage_pac_qarma_runs_total", "QARMA cipher runs: sign and auth MACs the signer's memo did not hold, plus every generic MAC.", ""},

	CPoolBoot:  {"camouflage_snapshot_pool_boots_total", "Machines built+verified+booted from scratch (pool misses that paid a boot).", ""},
	CPoolHit:   {"camouflage_snapshot_pool_hits_total", "Machines served from the warm pool (idle reuse).", ""},
	CPoolMiss:  {"camouflage_snapshot_pool_misses_total", "Copy-on-write snapshot forks of every kind: pool machines served with no idle one parked, campaign strikes, attack runs and replicas.", ""},
	CPoolDrop:  {"camouflage_snapshot_pool_drops_total", "Released machines dropped because the per-key idle cap was reached.", ""},
	CPoolEvict: {"camouflage_snapshot_pool_evictions_total", "Idle machines evicted from the warm pool.", ""},

	CCampaignStrikeRun:  {"camouflage_campaign_strikes_total", "Campaign strikes by path: run in the guest, or answered by the run of an earlier strike of the cell that left the same copy-on-write overlay.", `path="run"`},
	CCampaignStrikeMemo: {"camouflage_campaign_strikes_total", "Campaign strikes by path: run in the guest, or answered by the run of an earlier strike of the cell that left the same copy-on-write overlay.", `path="memo"`},

	CStoreHit:        {"camouflage_store_loads_total", "Snapshot loads from the persistent store by result: verified, no snapshot for the key, or a file that could not be read.", `result="hit"`},
	CStoreMiss:       {"camouflage_store_loads_total", "Snapshot loads from the persistent store by result: verified, no snapshot for the key, or a file that could not be read.", `result="miss"`},
	CStoreLoadError:  {"camouflage_store_loads_total", "Snapshot loads from the persistent store by result: verified, no snapshot for the key, or a file that could not be read.", `result="error"`},
	CStoreSave:       {"camouflage_store_saves_total", "Snapshots persisted to the store.", ""},
	CStoreSaveFail:   {"camouflage_store_save_failures_total", "Snapshot persists that failed; the next process boots the key again.", ""},
	CStoreVerifyFail: {"camouflage_store_verify_failures_total", "Snapshot loads refused because the file's content failed verification or its state did not decode.", ""},
	CStoreEvict:      {"camouflage_store_evictions_total", "Snapshots deleted from the persistent store.", ""},

	CQueueRejected: {"camouflage_server_queue_rejected_total", "Requests fast-failed because the admission queue was full.", ""},
	CLeaseIssued:   {"camouflage_server_leases_total", "Machine lease lifecycle events.", `event="issued"`},
	CLeaseReleased: {"camouflage_server_leases_total", "Machine lease lifecycle events.", `event="released"`},
	CLeaseExpired:  {"camouflage_server_leases_total", "Machine lease lifecycle events.", `event="expired"`},

	CFaultInjected:    {"camouflage_faults_injected_total", "Faults fired by the deterministic injection registry.", ""},
	CBootRetry:        {"camouflage_snapshot_pool_boot_retries_total", "Warm-pool boot attempts retried after a transient failure.", ""},
	CPanicRecovered:   {"camouflage_server_panics_recovered_total", "In-job panics caught by the per-request recovery barrier.", ""},
	CWatchdogCancel:   {"camouflage_server_watchdog_cancels_total", "Jobs cancelled by the run watchdog for exceeding their wall budget.", ""},
	CClientRetry:      {"camouflage_client_retries_total", "Client requests retried by the transport retry policy.", ""},
	CStoreOrphanSweep: {"camouflage_store_recovery_orphans_total", "Files removed by the store's startup recovery sweep: stranded temp files, torn snapshot files and files of retired store layouts.", ""},
}

// SampleName returns the full exposition sample name of a counter
// (family plus pre-rendered label set), the key used by JSON snapshots
// and run-trace deltas.
func (id CounterID) SampleName() string {
	m := &counterMetas[id]
	if m.labels == "" {
		return m.family
	}
	return m.family + "{" + m.labels + "}"
}

// Local is a per-core block of plain uint64 counter cells. Exactly one
// goroutine bumps it at a time (the one running the owning CPU), so
// increments need no synchronization; the trailing pad keeps adjacent
// Locals of sibling cores off each other's cache lines. Flush drains
// it into the shared shard accumulators.
type Local struct {
	V [NumCounters]uint64
	_ [64]byte
}

// Flush adds every non-zero cell into the shard accumulators and
// zeroes it. It allocates nothing and is safe to call concurrently
// with scrapes (the shard side is atomic). shard selects the
// accumulator stripe, typically the owning CPU's ID.
func (l *Local) Flush(shard int) {
	s := &shards[shard&(numShards-1)]
	for i := range l.V {
		if v := l.V[i]; v != 0 {
			s.v[i].Add(v)
			l.V[i] = 0
		}
	}
}

// numShards stripes the global accumulators so concurrent flushes from
// many machines' CPUs don't serialize on one cache line per counter.
const numShards = 8

// shard is one accumulator stripe; the pad keeps stripes from sharing
// a cache line at their boundaries.
type shard struct {
	v [NumCounters]atomic.Uint64
	_ [64]byte
}

var shards [numShards]shard

// Add atomically adds n to a counter — the cold-path entry point
// (COW materialization, pool events, HTTP accounting). Striped by ID
// so unrelated cold counters don't contend.
func Add(id CounterID, n uint64) {
	shards[int(id)&(numShards-1)].v[id].Add(n)
}

// CounterTotal returns the flushed total of one counter.
func CounterTotal(id CounterID) uint64 {
	var t uint64
	for i := range shards {
		t += shards[i].v[id].Load()
	}
	return t
}

// CounterTotals snapshots every flushed counter total.
func CounterTotals() [NumCounters]uint64 {
	var t [NumCounters]uint64
	for i := range shards {
		for id := range t {
			t[id] += shards[i].v[id].Load()
		}
	}
	return t
}

// gauges are callback-valued instantaneous readings (queue depth,
// active leases, pool idle size). Registration replaces by name, so a
// test constructing a second server simply re-points the gauge at the
// live instance.
type gauge struct {
	name, help string
	fn         func() float64
}

var (
	gaugeMu sync.Mutex
	gauges  = map[string]gauge{}
)

// RegisterGauge registers (or replaces) a gauge read through fn at
// scrape time. fn must be safe to call from any goroutine.
func RegisterGauge(name, help string, fn func() float64) {
	gaugeMu.Lock()
	defer gaugeMu.Unlock()
	gauges[name] = gauge{name: name, help: help, fn: fn}
}

// sortedGauges snapshots the gauge table in name order (deterministic
// exposition).
func sortedGauges() []gauge {
	gaugeMu.Lock()
	defer gaugeMu.Unlock()
	out := make([]gauge, 0, len(gauges))
	for _, g := range gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Vec is a counter family with runtime-chosen label sets, for the few
// places where the combination space is awkward to enumerate in the
// static table (per-endpoint × status-class HTTP accounting). Cells
// are memoized per pre-rendered label string; callers hold the
// returned *atomic.Uint64 and never touch the map again, so the mutex
// is off every request path that matters.
type Vec struct {
	name, help string

	mu    sync.Mutex
	cells map[string]*atomic.Uint64
}

var (
	vecMu sync.Mutex
	vecs  = map[string]*Vec{}
)

// NewVec returns the counter family of that name, creating it on first
// use (idempotent, so package init order never double-registers).
func NewVec(name, help string) *Vec {
	vecMu.Lock()
	defer vecMu.Unlock()
	if v, ok := vecs[name]; ok {
		return v
	}
	v := &Vec{name: name, help: help, cells: map[string]*atomic.Uint64{}}
	vecs[name] = v
	return v
}

// Cell returns the counter cell for a pre-rendered label set such as
// `endpoint="/v1/stats",code="2xx"` (no braces).
func (v *Vec) Cell(labels string) *atomic.Uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.cells[labels]
	if !ok {
		c = new(atomic.Uint64)
		v.cells[labels] = c
	}
	return c
}

// snapshotCells returns the vec's samples in label order.
func (v *Vec) snapshotCells() []vecSample {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]vecSample, 0, len(v.cells))
	for l, c := range v.cells {
		out = append(out, vecSample{labels: l, value: c.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

type vecSample struct {
	labels string
	value  uint64
}

// sortedVecs snapshots the vec table in name order.
func sortedVecs() []*Vec {
	vecMu.Lock()
	defer vecMu.Unlock()
	out := make([]*Vec, 0, len(vecs))
	for _, v := range vecs {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
