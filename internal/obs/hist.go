package obs

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans 100µs to 10s — wide enough for a queue
// wait, a COW fork (~tens of µs, lands in the first bucket) and a full
// build+verify+boot (~hundreds of ms) on the same scale.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram: observations are
// recorded in nanoseconds with atomic adds (cold paths only — nothing
// on the instruction loop observes a histogram) and exposed in seconds
// with cumulative Prometheus bucket semantics.
type Histogram struct {
	name, help string
	labels     string    // pre-rendered label set without braces ("" for none)
	bounds     []float64 // upper bounds in seconds, ascending

	// Rendered once at registration: the sample name (family plus
	// braced label set), the run-trace delta keys, and the label text
	// of each _bucket line (the label set plus le="bound").
	sample, countKey, sumKey string
	bucketLabels             []string

	counts []atomic.Uint64 // per-bucket (non-cumulative); len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sumNs  atomic.Uint64
}

// The histogram table. histReg is append-only in registration order,
// so index i names the same histogram in every later reading and a run
// trace captures (count, sum) pairs by index. histByFamily is the
// exposition order (family, then label set); a registration replaces
// it with a new slice and never edits one a reader may hold.
var (
	histMu       sync.Mutex
	histByKey    = map[string]*Histogram{}
	histReg      []*Histogram
	histByFamily []*Histogram
)

// histTable returns the current registration-order table and
// family-order view. Both are read-only to the caller.
func histTable() (reg, byFamily []*Histogram) {
	histMu.Lock()
	defer histMu.Unlock()
	return histReg, histByFamily
}

// NewHistogram returns the histogram of that name, creating it with
// the given bucket upper bounds (in seconds, ascending) on first use.
// Idempotent by name so package-level construction in multiple
// packages never double-registers.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return NewHistogramLabels(name, help, "", bounds)
}

// NewHistogramLabels is NewHistogram for a labeled member of a family:
// siblings share name and help and differ in their pre-rendered label
// set (no braces), e.g. `endpoint="/v1/experiments"`. Idempotent by
// name+labels.
func NewHistogramLabels(name, help, labels string, bounds []float64) *Histogram {
	sample := name
	if labels != "" {
		sample = name + "{" + labels + "}"
	}
	histMu.Lock()
	defer histMu.Unlock()
	if h, ok := histByKey[sample]; ok {
		return h
	}
	h := &Histogram{
		name:         name,
		help:         help,
		labels:       labels,
		bounds:       append([]float64(nil), bounds...),
		sample:       sample,
		countKey:     sample + "_count",
		sumKey:       sample + "_sum_ns",
		bucketLabels: make([]string, len(bounds)+1),
		counts:       make([]atomic.Uint64, len(bounds)+1),
	}
	for i := range h.bucketLabels {
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		h.bucketLabels[i] = `le="` + le + `"`
		if labels != "" {
			h.bucketLabels[i] = labels + "," + h.bucketLabels[i]
		}
	}
	histByKey[sample] = h
	histReg = append(histReg, h)
	i, _ := slices.BinarySearchFunc(histByFamily, h, cmpFamily)
	histByFamily = slices.Insert(slices.Clip(histByFamily), i, h)
	return h
}

// cmpFamily orders histograms by family, labeled siblings adjacent in
// label order, so the exposition writer emits HELP/TYPE once per
// family.
func cmpFamily(a, b *Histogram) int {
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return strings.Compare(a.labels, b.labels)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, sec) // first bound >= sec
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// Name returns the metric family name.
func (h *Histogram) Name() string { return h.name }

// HistSnapshot is a point-in-time read of a histogram, used by the
// JSON stats embedding and the run-trace layer.
type HistSnapshot struct {
	Count      uint64        `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	Buckets    []BucketCount `json:"buckets"`
}

// BucketCount is one cumulative bucket: observations <= LE.
type BucketCount struct {
	LE    float64 `json:"le"` // +Inf encoded as the largest float64
	Count uint64  `json:"count"`
}

// snapshot reads the histogram; buckets come back cumulative.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:      h.count.Load(),
		SumSeconds: float64(h.sumNs.Load()) / 1e9,
		Buckets:    make([]BucketCount, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := inf64
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: le, Count: cum}
	}
	return s
}
