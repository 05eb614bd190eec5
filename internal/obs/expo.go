package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// inf64 stands in for the +Inf bucket bound: encoding/json rejects
// actual infinities, so snapshots carry MaxFloat64 and the Prometheus
// writer renders anything that large as the literal "+Inf".
var inf64 = math.MaxFloat64

// Inf64 returns the sentinel standing in for +Inf wherever a value
// must survive encoding/json (bucket bounds, parsed exposition).
func Inf64() float64 { return inf64 }

// WritePrometheus renders the whole registry in Prometheus text
// exposition format (version 0.0.4): every static counter family, then
// vec families, gauges and histograms, each preceded by its # HELP and
// # TYPE lines. Output is deterministic: static families appear in
// enum order, everything else in name order.
func WritePrometheus(w io.Writer) error {
	ew := expoWriter{w: bufio.NewWriter(w)}
	totals := CounterTotals()

	// Static counter families, grouped in enum order (IDs of one family
	// are contiguous by construction; emit HELP/TYPE at each first ID).
	prevFamily := ""
	for id := CounterID(0); id < NumCounters; id++ {
		m := &counterMetas[id]
		if m.family != prevFamily {
			ew.header(m.family, m.help, "counter")
			prevFamily = m.family
		}
		ew.uint(m.family, "", m.labels, totals[id])
	}

	for _, v := range sortedVecs() {
		ew.header(v.name, v.help, "counter")
		for _, s := range v.snapshotCells() {
			ew.uint(v.name, "", s.labels, s.value)
		}
	}

	for _, g := range sortedGauges() {
		ew.header(g.name, g.help, "gauge")
		ew.float(g.name, "", "", g.fn())
	}

	prevFamily = ""
	_, byFamily := histTable()
	for _, h := range byFamily {
		if h.name != prevFamily {
			ew.header(h.name, h.help, "histogram")
			prevFamily = h.name
		}
		count, sumNs := h.count.Load(), h.sumNs.Load()
		var cum uint64
		for i := range h.counts {
			cum += h.counts[i].Load()
			ew.uint(h.name, "_bucket", h.bucketLabels[i], cum)
		}
		ew.float(h.name, "_sum", h.labels, float64(sumNs)/1e9)
		ew.uint(h.name, "_count", h.labels, count)
	}

	return ew.w.Flush()
}

// expoWriter renders exposition lines, formatting each value into one
// reused buffer.
type expoWriter struct {
	w   *bufio.Writer
	num []byte
}

func (e *expoWriter) header(name, help, typ string) {
	e.w.WriteString("# HELP ")
	e.w.WriteString(name)
	e.w.WriteByte(' ')
	e.w.WriteString(help)
	e.w.WriteString("\n# TYPE ")
	e.w.WriteString(name)
	e.w.WriteByte(' ')
	e.w.WriteString(typ)
	e.w.WriteByte('\n')
}

func (e *expoWriter) uint(name, suffix, labels string, v uint64) {
	e.num = strconv.AppendUint(e.num[:0], v, 10)
	e.sample(name, suffix, labels)
}

func (e *expoWriter) float(name, suffix, labels string, v float64) {
	e.num = strconv.AppendFloat(e.num[:0], v, 'g', -1, 64)
	e.sample(name, suffix, labels)
}

// sample writes the line name+suffix{labels} with the value already in
// e.num.
func (e *expoWriter) sample(name, suffix, labels string) {
	e.w.WriteString(name)
	e.w.WriteString(suffix)
	if labels != "" {
		e.w.WriteByte('{')
		e.w.WriteString(labels)
		e.w.WriteByte('}')
	}
	e.w.WriteByte(' ')
	e.w.Write(e.num)
	e.w.WriteByte('\n')
}

// Snapshot is the JSON form of the registry, embedded in /v1/stats so
// fleet tooling gets the same numbers /metrics exposes without parsing
// text exposition. Counter keys are full sample names (family plus
// label set); map keys marshal sorted, so the document is
// deterministic for a fixed registry state.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// TakeSnapshot reads the whole registry.
func TakeSnapshot() Snapshot {
	totals := CounterTotals()
	s := Snapshot{
		Counters:   make(map[string]uint64, int(NumCounters)),
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	for id := CounterID(0); id < NumCounters; id++ {
		s.Counters[id.SampleName()] = totals[id]
	}
	for _, v := range sortedVecs() {
		for _, c := range v.snapshotCells() {
			s.Counters[v.name+"{"+c.labels+"}"] = c.value
		}
	}
	for _, g := range sortedGauges() {
		s.Gauges[g.name] = g.fn()
	}
	_, byFamily := histTable()
	for _, h := range byFamily {
		s.Histograms[h.sample] = h.snapshot()
	}
	return s
}
