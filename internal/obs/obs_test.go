package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCounterMetasComplete pins that every CounterID has exposition
// metadata and that IDs sharing a family are contiguous (the writer
// emits HELP/TYPE at family changes only).
func TestCounterMetasComplete(t *testing.T) {
	seen := map[string]CounterID{}
	prev := ""
	for id := CounterID(0); id < NumCounters; id++ {
		m := counterMetas[id]
		if m.family == "" || m.help == "" {
			t.Fatalf("counter %d has incomplete metadata: %+v", id, m)
		}
		if !strings.HasPrefix(m.family, "camouflage_") || !strings.HasSuffix(m.family, "_total") {
			t.Errorf("counter family %q breaks the naming convention", m.family)
		}
		if first, ok := seen[m.family]; ok && m.family != prev {
			t.Errorf("family %q is not contiguous (first at %d, again at %d)", m.family, first, id)
		}
		if _, ok := seen[m.family]; !ok {
			seen[m.family] = id
		}
		prev = m.family
	}
}

// TestLocalFlush pins the hot-path contract: plain increments in a
// Local become visible in CounterTotal only after Flush, and Flush
// zeroes the cells.
func TestLocalFlush(t *testing.T) {
	before := CounterTotal(CTraceBuild)
	var l Local
	l.V[CTraceBuild] += 3
	if got := CounterTotal(CTraceBuild); got != before {
		t.Fatalf("unflushed increment visible: %d != %d", got, before)
	}
	l.Flush()
	if got := CounterTotal(CTraceBuild); got != before+3 {
		t.Fatalf("after flush: got %d, want %d", got, before+3)
	}
	if l.V[CTraceBuild] != 0 {
		t.Fatalf("flush did not zero the cell")
	}
}

func TestAddAndTotals(t *testing.T) {
	before := CounterTotals()
	Add(CPoolDrop, 2)
	Add(CPoolDrop, 1)
	after := CounterTotals()
	if d := after[CPoolDrop] - before[CPoolDrop]; d != 3 {
		t.Fatalf("CPoolDrop delta = %d, want 3", d)
	}
}

func TestSampleName(t *testing.T) {
	if got := CRetired.SampleName(); got != "camouflage_cpu_instructions_retired_total" {
		t.Fatalf("unlabeled sample name: %q", got)
	}
	want := `camouflage_pac_auths_total{key="GA"}`
	if got := CPACAuthGA.SampleName(); got != want {
		t.Fatalf("labeled sample name: %q, want %q", got, want)
	}
}

// TestHistogramBuckets pins bucket placement and the cumulative
// snapshot. Like TestVecCells it reads deltas, as the registry is
// process-wide and `go test -count=N` reruns it in one process.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("camouflage_test_hist_seconds", "Test histogram.", []float64{0.001, 1})
	before := h.snapshot()
	h.Observe(500 * time.Microsecond) // bucket 0 (<= 1ms)
	h.Observe(500 * time.Millisecond) // bucket 1 (<= 1s)
	h.Observe(2 * time.Second)        // +Inf bucket
	s := h.snapshot()
	if d := s.Count - before.Count; d != 3 {
		t.Fatalf("count delta = %d, want 3", d)
	}
	wantCum := []uint64{1, 2, 3}
	for i, b := range s.Buckets {
		if d := b.Count - before.Buckets[i].Count; d != wantCum[i] {
			t.Fatalf("bucket %d cumulative delta = %d, want %d", i, d, wantCum[i])
		}
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.LE < inf64 {
		t.Fatalf("last bucket bound %v is not the +Inf sentinel", last.LE)
	}
	if d := s.SumSeconds - before.SumSeconds; d < 2.5 || d > 2.6 {
		t.Fatalf("sum delta = %v, want ~2.5005", d)
	}
	// Idempotent by name: same pointer back, no reset.
	if h2 := NewHistogram("camouflage_test_hist_seconds", "x", nil); h2 != h {
		t.Fatalf("NewHistogram is not idempotent")
	}
}

func TestVecCells(t *testing.T) {
	v := NewVec("camouflage_test_vec_total", "Test vec.")
	if v2 := NewVec("camouflage_test_vec_total", "x"); v2 != v {
		t.Fatalf("NewVec is not idempotent")
	}
	c := v.Cell(`op="a"`)
	a0, b0 := c.Load(), v.Cell(`op="b"`).Load()
	c.Add(2)
	if c2 := v.Cell(`op="a"`); c2 != c {
		t.Fatalf("Cell is not memoized")
	}
	v.Cell(`op="b"`).Add(1)
	cells := v.snapshotCells()
	if len(cells) != 2 || cells[0].labels != `op="a"` || cells[0].value-a0 != 2 ||
		cells[1].labels != `op="b"` || cells[1].value-b0 != 1 {
		t.Fatalf("snapshotCells = %+v (before: a=%d b=%d)", cells, a0, b0)
	}
}

// writePrometheusRuns numbers TestWritePrometheus's runs in this
// process, so each run registers histogram families no earlier run
// observed into.
var writePrometheusRuns int

// TestWritePrometheus checks exposition shape: every counter family
// appears exactly once as HELP+TYPE, samples parse as "name value" or
// "name{labels} value", histograms end with _sum and _count.
func TestWritePrometheus(t *testing.T) {
	writePrometheusRuns++
	labeled := fmt.Sprintf("camouflage_test_labeled_%d_seconds", writePrometheusRuns)
	early := fmt.Sprintf("camouflage_test_early_%d_seconds", writePrometheusRuns)
	RegisterGauge("camouflage_test_gauge", "Test gauge.", func() float64 { return 42 })
	NewHistogramLabels(labeled, "Labeled test histogram.",
		`shard="a"`, []float64{1}).Observe(time.Millisecond)
	NewHistogramLabels(labeled, "Labeled test histogram.",
		`shard="b"`, []float64{1}).Observe(2 * time.Second)

	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, family := range []string{
		"camouflage_cpu_instructions_retired_total",
		"camouflage_cpu_trace_exits_total",
		"camouflage_mmu_stage2_walks_total",
		"camouflage_mem_cow_materializations_total",
		"camouflage_pac_auths_total",
		"camouflage_snapshot_pool_boots_total",
		"camouflage_server_queue_rejected_total",
	} {
		if n := strings.Count(out, "# HELP "+family+" "); n != 1 {
			t.Errorf("family %s: %d HELP lines, want 1", family, n)
		}
		if n := strings.Count(out, "# TYPE "+family+" counter"); n != 1 {
			t.Errorf("family %s: %d TYPE counter lines, want 1", family, n)
		}
	}
	if !strings.Contains(out, "camouflage_test_gauge 42\n") {
		t.Errorf("gauge sample missing")
	}
	if n := strings.Count(out, "# TYPE "+labeled+" histogram"); n != 1 {
		t.Errorf("labeled histogram family emitted %d TYPE lines, want 1", n)
	}
	if !strings.Contains(out, labeled+`_bucket{shard="a",le="+Inf"} 1`) {
		t.Errorf("labeled +Inf bucket missing:\n%s", out)
	}
	if !strings.Contains(out, labeled+`_count{shard="b"} 1`) {
		t.Errorf("labeled _count missing")
	}
	// The PAC family must carry all five key labels.
	for _, key := range []string{"IA", "IB", "DA", "DB", "GA"} {
		if !strings.Contains(out, `camouflage_pac_auths_total{key="`+key+`"} `) {
			t.Errorf("PAC key %s sample missing", key)
		}
	}

	// Histograms registered between two scrapes take their place in
	// family order: a new family before the labeled one, and a sibling
	// whose label set sorts first ahead of its elders.
	NewHistogram(early, "Family registered between scrapes.", []float64{1})
	NewHistogramLabels(labeled, "Labeled test histogram.",
		`shard="0"`, []float64{1}).Observe(time.Millisecond)
	b.Reset()
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	var at []int
	for _, line := range []string{
		"# TYPE " + early + " histogram\n",
		early + `_bucket{le="1"} `,
		"# TYPE " + labeled + " histogram\n",
		labeled + `_bucket{shard="0",le="1"} `,
		labeled + `_count{shard="0"} `,
		labeled + `_bucket{shard="a",le="1"} `,
	} {
		i := strings.Index(out, line)
		if i < 0 || strings.Count(out, line) != 1 {
			t.Fatalf("second scrape holds %q %d times, want once:\n%s", line, strings.Count(out, line), out)
		}
		at = append(at, i)
	}
	if !slices.IsSorted(at) {
		t.Fatalf("histograms registered between scrapes are out of family order (offsets %v)", at)
	}
}

// TestSnapshotJSON pins that the JSON embedding marshals (no +Inf
// leaks into encoding/json) and carries every static counter.
func TestSnapshotJSON(t *testing.T) {
	s := TakeSnapshot()
	if len(s.Counters) < int(NumCounters) {
		t.Fatalf("snapshot has %d counters, want >= %d", len(s.Counters), NumCounters)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if _, ok := back.Counters["camouflage_cpu_cycles_total"]; !ok {
		t.Fatalf("round-tripped snapshot lost the cycles counter")
	}
}

// TestRunTrace pins a run's event log: each phase carries the counter
// deltas and the _count/_sum_ns deltas of each histogram observed since
// the previous event, keyed by sample name, and nothing that did not
// change; a histogram registered mid-run counts from zero. A traced run
// costs a bounded number of allocations however many histograms the
// registry holds.
func TestRunTrace(t *testing.T) {
	seen := NewHistogramLabels("camouflage_test_trace_seconds", "Trace test histogram.",
		`phase="a"`, []float64{1})
	r := BeginRun("test", "label-1")
	if r.ID() == "" {
		t.Fatal("empty run ID")
	}
	Add(CPoolHit, 7)
	seen.Observe(3 * time.Microsecond)
	r.Phase("phase-a", 5*time.Millisecond)
	r.Phase("phase-b", 0) // no deltas accrued
	late := NewHistogramLabels("camouflage_test_trace_seconds", "Trace test histogram.",
		`phase="c"`, []float64{1})
	late.Observe(2 * time.Microsecond)
	late.Observe(2 * time.Microsecond)
	r.Phase("phase-c", 0)
	r.End()

	tr, ok := RunTraceByID(r.ID())
	if !ok {
		t.Fatalf("run %s not retrievable", r.ID())
	}
	if !tr.Done || tr.Kind != "test" || tr.Label != "label-1" {
		t.Fatalf("trace header: %+v", tr)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(tr.Events))
	}
	for i, want := range []map[string]uint64{
		{
			CPoolHit.SampleName():                             7,
			`camouflage_test_trace_seconds{phase="a"}_count`:  1,
			`camouflage_test_trace_seconds{phase="a"}_sum_ns`: 3000,
		},
		nil,
		{
			`camouflage_test_trace_seconds{phase="c"}_count`:  2,
			`camouflage_test_trace_seconds{phase="c"}_sum_ns`: 4000,
		},
	} {
		if got := tr.Events[i].Counters; !maps.Equal(got, want) {
			t.Errorf("%s deltas = %v, want %v", tr.Events[i].Name, got, want)
		}
	}

	for i := 0; i < 64; i++ {
		NewHistogramLabels("camouflage_test_trace_seconds", "Trace test histogram.",
			fmt.Sprintf(`phase="fill-%02d"`, i), DefaultLatencyBuckets)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := BeginRun("test", "allocs")
		Add(CPoolHit, 1)
		seen.Observe(time.Microsecond)
		r.Phase("phase", 0)
		r.End()
	})
	if allocs > 10 {
		t.Errorf("BeginRun + Phase + End made %v allocations, want at most 10", allocs)
	}

	// Nil runs are inert.
	var nilRun *Run
	nilRun.Phase("x", 0)
	nilRun.End()
	if nilRun.ID() != "" || nilRun.Trace().ID != "" {
		t.Fatal("nil run is not inert")
	}

	if _, ok := RunTraceByID("run-does-not-exist"); ok {
		t.Fatal("lookup of unknown run succeeded")
	}
}

// TestRunStoreBounded pins the ring: old runs fall out after
// maxStoredRuns newer ones.
func TestRunStoreBounded(t *testing.T) {
	first := BeginRun("test", "evictee")
	for i := 0; i < maxStoredRuns; i++ {
		BeginRun("test", fmt.Sprintf("filler-%d", i)).End()
	}
	if _, ok := RunTraceByID(first.ID()); ok {
		t.Fatalf("run %s survived %d newer runs", first.ID(), maxStoredRuns)
	}
}

// TestConcurrentFlushAndScrape exercises flush/Add/histogram
// registration against scrapes and run traces under the race detector.
func TestConcurrentFlushAndScrape(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var l Local
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.V[CTraceEnter]++
			l.Flush()
			Add(CPoolMiss, 1)
			NewHistogramLabels("camouflage_test_concurrent_seconds", "Concurrent test histogram.",
				fmt.Sprintf(`n="%d"`, i%32), []float64{1}).Observe(time.Microsecond)
		}
	}()
	r := BeginRun("test", "concurrent")
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b); err != nil {
			t.Error(err)
		}
		TakeSnapshot()
		r.Phase("scrape", 0)
	}
	r.End()
	close(stop)
	<-done
}
