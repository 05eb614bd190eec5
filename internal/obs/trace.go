package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The run-trace layer gives every experiment, campaign and lease run a
// process-unique ID and an ordered event log: each recorded phase
// carries its wall time and the registry counter deltas that accrued
// during it (engine counters and histogram count/sum pairs), so an
// operator can ask "what did run run-000017 actually do" — how many
// machines it booted vs forked, how many traces it fused, how many PAC
// authentications it burned — via GET /v1/runs/{id}/trace or
// `cmd/experiments -trace`.
//
// Tracing is strictly host-side bookkeeping off the execution fast
// path: counter deltas are read from the flushed counter totals,
// so a run's numbers include everything its CPUs flushed at Run exit
// (experiment work completes all its CPU.Run calls before the phase is
// recorded, so per-phase deltas are exact for sequential runs and
// merely overlapped for concurrent ones — same contract as
// RunStats.Exact).

// Run is one traced unit of work. A nil *Run is valid and records
// nothing, so call sites thread it unconditionally.
type Run struct {
	id    string
	kind  string
	label string
	start time.Time

	mu     sync.Mutex
	events []TraceEvent
	last   capture
	done   bool
	wall   time.Duration
}

// TraceEvent is one recorded phase of a run.
type TraceEvent struct {
	// Name identifies the phase ("exp:fig4", "campaign", "machine-run").
	Name string `json:"name"`
	// AtNs is the phase end, in nanoseconds since the run began.
	AtNs int64 `json:"at_ns"`
	// WallNs is the phase duration.
	WallNs int64 `json:"wall_ns,omitempty"`
	// Counters holds the non-zero registry deltas accrued since the
	// previous event, keyed by full sample name; histograms contribute
	// <name>_count and <name>_sum_ns entries.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// RunTrace is the wire form of a run's trace (GET /v1/runs/{id}/trace).
type RunTrace struct {
	ID          string       `json:"id"`
	Kind        string       `json:"kind"`
	Label       string       `json:"label,omitempty"`
	StartUnixNs int64        `json:"start_unix_ns"`
	WallNs      int64        `json:"wall_ns"`
	Done        bool         `json:"done"`
	Events      []TraceEvent `json:"events"`
}

// capture is a registry reading used to compute per-phase deltas:
// every counter, and the (count, sum) pair of each histogram in
// registration order.
type capture struct {
	counters [NumCounters]uint64
	hists    []histReading
}

type histReading struct {
	h            *Histogram
	count, sumNs uint64
}

func captureTotals() capture {
	reg, _ := histTable()
	c := capture{counters: CounterTotals(), hists: make([]histReading, len(reg))}
	for i, h := range reg {
		c.hists[i] = histReading{h, h.count.Load(), h.sumNs.Load()}
	}
	return c
}

// delta returns the non-zero differences now-prev as sample-name keyed
// counts. The table only grows, so a histogram registered after prev
// was captured sits past prev's readings and counts from zero.
func (now *capture) delta(prev *capture) map[string]uint64 {
	var d map[string]uint64
	put := func(name string, v uint64) {
		if v == 0 {
			return
		}
		if d == nil {
			d = map[string]uint64{}
		}
		d[name] = v
	}
	for id := CounterID(0); id < NumCounters; id++ {
		put(counterSamples[id], now.counters[id]-prev.counters[id])
	}
	for i, r := range now.hists {
		var p histReading
		if i < len(prev.hists) {
			p = prev.hists[i]
		}
		put(r.h.countKey, r.count-p.count)
		put(r.h.sumKey, r.sumNs-p.sumNs)
	}
	return d
}

// runSeq numbers runs process-wide; the store below keeps the most
// recent maxStoredRuns retrievable by ID.
var runSeq atomic.Uint64

const maxStoredRuns = 256

var (
	runMu    sync.Mutex
	runs     = map[string]*Run{}
	runOrder []string
)

// BeginRun starts a traced run and registers it in the bounded store.
// kind groups runs ("experiments", "campaign", "machine-run"); label
// is free-form (experiment IDs, lease ID).
func BeginRun(kind, label string) *Run {
	r := &Run{
		id:    fmt.Sprintf("run-%06d", runSeq.Add(1)),
		kind:  kind,
		label: label,
		start: time.Now(),
		last:  captureTotals(),
	}
	runMu.Lock()
	runs[r.id] = r
	runOrder = append(runOrder, r.id)
	if len(runOrder) > maxStoredRuns {
		delete(runs, runOrder[0])
		runOrder = runOrder[1:]
	}
	runMu.Unlock()
	return r
}

// ID returns the run's process-unique identifier ("" for nil).
func (r *Run) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Phase records one completed phase: its wall duration plus the
// registry deltas since the previous event. Safe for concurrent use
// (events record in the order their phases complete).
func (r *Run) Phase(name string, wall time.Duration) {
	if r == nil {
		return
	}
	now := captureTotals()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, TraceEvent{
		Name:     name,
		AtNs:     time.Since(r.start).Nanoseconds(),
		WallNs:   wall.Nanoseconds(),
		Counters: now.delta(&r.last),
	})
	r.last = now
}

// End marks the run complete and freezes its wall time. Idempotent.
func (r *Run) End() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.done = true
		r.wall = time.Since(r.start)
	}
}

// Trace snapshots the run's event log (valid mid-run; Done reports
// whether End has been called). Nil-safe: returns a zero RunTrace.
func (r *Run) Trace() RunTrace {
	if r == nil {
		return RunTrace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	wall := r.wall
	if !r.done {
		wall = time.Since(r.start)
	}
	return RunTrace{
		ID:          r.id,
		Kind:        r.kind,
		Label:       r.label,
		StartUnixNs: r.start.UnixNano(),
		WallNs:      wall.Nanoseconds(),
		Done:        r.done,
		Events:      append([]TraceEvent(nil), r.events...),
	}
}

// RunTraceByID retrieves a stored run's trace.
func RunTraceByID(id string) (RunTrace, bool) {
	runMu.Lock()
	r := runs[id]
	runMu.Unlock()
	if r == nil {
		return RunTrace{}, false
	}
	return r.Trace(), true
}
