package client

// Tests of the exposition parser: the round trip from the live
// registry through obs.WritePrometheus, label escapes (also from
// several goroutines), the infinity sentinel, rejected input,
// allocations per sample, and a fuzz target holding re-rendered samples
// to their parse.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"camouflage/internal/obs"
)

func TestParseMetricsRoundTrip(t *testing.T) {
	// Move some registry state so the exposition is non-trivial.
	obs.Add(obs.CPoolHit, 5)
	obs.Add(obs.CPACAuthDB, 2)
	obs.NewHistogram("camouflage_client_test_seconds", "Client parser test histogram.",
		[]float64{0.01, 1}).Observe(3 * time.Second)

	var b strings.Builder
	if err := obs.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]MetricSample, len(samples))
	for _, s := range samples {
		if _, dup := byKey[s.Key()]; dup {
			t.Errorf("duplicate sample key %q", s.Key())
		}
		byKey[s.Key()] = s
	}

	// Every static counter must parse back to its registry total.
	for id := obs.CounterID(0); id < obs.NumCounters; id++ {
		key := id.SampleName()
		s, ok := byKey[key]
		if !ok {
			t.Errorf("counter %s missing from parsed samples", key)
			continue
		}
		if want := float64(obs.CounterTotal(id)); s.Value != want {
			t.Errorf("%s = %v, want %v", key, s.Value, want)
		}
	}

	// Labeled samples keep their labels through the canonical key.
	if s, ok := byKey[`camouflage_pac_auths_total{key="DB"}`]; !ok {
		t.Error("labeled PAC sample missing")
	} else if s.Labels["key"] != "DB" {
		t.Errorf("label map = %v", s.Labels)
	}

	// The histogram's +Inf bucket parses via the sentinel.
	inf, ok := byKey[`camouflage_client_test_seconds_bucket{le="+Inf"}`]
	if !ok {
		t.Fatal("+Inf bucket missing from parsed samples")
	}
	if inf.Value < 1 {
		t.Errorf("+Inf bucket = %v, want >= 1", inf.Value)
	}
	if inf.Labels["le"] != "+Inf" {
		t.Errorf("+Inf label lost: %v", inf.Labels)
	}
	if _, ok := byKey[`camouflage_client_test_seconds_count`]; !ok {
		t.Error("_count sample missing")
	}
}

// escapedExposition uses each label-value escape.
const escapedExposition = "# HELP x_total Escaped labels.\n" +
	"# TYPE x_total counter\n" +
	"x_total{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\",nl=\"line\\nbreak\"} 4\n"

// garbageExpositions are inputs ParseMetrics must reject.
var garbageExpositions = []string{
	"x_total{unterminated=\"a} 1\n",
	"x_total notanumber\n",
	"lonely_name_no_value\n",
	"x_total 1e999\n",
	"x_total{a=\"b\"} -1e400\n",
}

func TestParseMetricsEscapes(t *testing.T) {
	samples, err := ParseMetrics(strings.NewReader(escapedExposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Fatalf("parsed %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.Labels["path"] != `a\b` || s.Labels["msg"] != `say "hi"` || s.Labels["nl"] != "line\nbreak" {
		t.Fatalf("unescaped labels = %#v", s.Labels)
	}
	if s.Value != 4 {
		t.Fatalf("value = %v", s.Value)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, in := range garbageExpositions {
		if _, err := ParseMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("input %q parsed without error", in)
		}
	}
}

// TestParseMetricsConcurrentUnescape: parsers on several goroutines
// share the package-level label unescaper.
func TestParseMetricsConcurrentUnescape(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples, err := ParseMetrics(strings.NewReader(escapedExposition))
			if err != nil || len(samples) != 1 || samples[0].Labels["msg"] != `say "hi"` {
				t.Errorf("concurrent parse = %v, %v", samples, err)
			}
		}()
	}
	wg.Wait()
}

// TestParseMetricsInfinities: every infinity spelling strconv.ParseFloat
// accepts parses to the ±obs.Inf64() sentinel, so the samples marshal
// to JSON.
func TestParseMetricsInfinities(t *testing.T) {
	for _, c := range []struct {
		text string
		want float64
	}{
		{"+Inf", obs.Inf64()},
		{"Inf", obs.Inf64()},
		{"inf", obs.Inf64()},
		{"+inf", obs.Inf64()},
		{"Infinity", obs.Inf64()},
		{"+INFINITY", obs.Inf64()},
		{"-Inf", -obs.Inf64()},
		{"-inf", -obs.Inf64()},
		{"-infinity", -obs.Inf64()},
	} {
		samples, err := ParseMetrics(strings.NewReader("x{le=\"" + c.text + "\"} " + c.text + "\ny " + c.text + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		for _, s := range samples {
			if s.Value != c.want {
				t.Errorf("%s: %s = %v, want %v", c.text, s.Name, s.Value, c.want)
			}
		}
		if _, err := json.Marshal(samples); err != nil {
			t.Errorf("%s: samples do not marshal: %v", c.text, err)
		}
	}
}

// allocExposition is a fixed exposition in the daemon's shape: mostly
// labeled samples whose values need no unescaping, some unlabeled ones,
// and a few label values using each escape.
func allocExposition() (text string, samples int) {
	var b strings.Builder
	for _, k := range []string{"IA", "IB", "DA", "DB", "GA"} {
		for _, op := range []string{"sign", "auth"} {
			fmt.Fprintf(&b, "camouflage_pac_ops_total{key=%q,op=%q} %d\n", k, op, len(k)*len(op))
			samples++
		}
	}
	b.WriteString("# HELP camouflage_server_request_seconds Request latency.\n")
	b.WriteString("# TYPE camouflage_server_request_seconds histogram\n")
	for _, route := range []string{"lease", "run", "state", "reset", "release"} {
		for _, le := range []string{"0.001", "0.01", "0.1", "1", "+Inf"} {
			fmt.Fprintf(&b, "camouflage_server_request_seconds_bucket{route=%q,le=%q} 7\n", route, le)
			samples++
		}
		fmt.Fprintf(&b, "camouflage_server_request_seconds_sum{route=%q} 0.25\n", route)
		fmt.Fprintf(&b, "camouflage_server_request_seconds_count{route=%q} 7\n", route)
		samples += 2
	}
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "camouflage_gauge_%d %d\n", i, i*3)
		samples++
	}
	b.WriteString(`camouflage_escaped_total{path="a\\b",msg="say \"hi\""} 1` + "\n")
	b.WriteString(`camouflage_escaped_total{path="c\\d",msg="line\nbreak"} 2` + "\n")
	b.WriteString(`camouflage_escaped_total{path="e",msg="\"\\\n"} 3` + "\n")
	samples += 3
	return b.String(), samples
}

// TestParseMetricsAllocs bounds the parser's allocations per sample.
// Building a label unescaper for every label value cost 21 per sample of
// this fixture (Go 1.24); one package-level unescaper, applied only to
// values holding a backslash, leaves about 3.
func TestParseMetricsAllocs(t *testing.T) {
	text, n := allocExposition()
	if got, err := ParseMetrics(strings.NewReader(text)); err != nil || len(got) != n {
		t.Fatalf("fixture parsed to %d samples (err %v), want %d", len(got), err, n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseMetrics(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	const maxPerSample = 6
	per := allocs / float64(n)
	t.Logf("%.1f allocations per sample", per)
	if per > maxPerSample {
		t.Fatalf("ParseMetrics made %.1f allocations per sample (%v for %d), want at most %d",
			per, allocs, n, maxPerSample)
	}
}

// renderSample writes s as one exposition line: sorted labels, braces
// whenever s has a label map, \\ \" and \n escaped, and the value in
// strconv's shortest 'g' form.
func renderSample(b *strings.Builder, s MetricSample) {
	b.WriteString(s.Name)
	if s.Labels != nil {
		names := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteByte('{')
		for i, k := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(labelEscaper.Replace(s.Labels[k]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
	b.WriteByte('\n')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sameSample compares two samples, NaN values by their bits.
func sameSample(a, b MetricSample) bool {
	return a.Name == b.Name && reflect.DeepEqual(a.Labels, b.Labels) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// FuzzParseMetrics feeds arbitrary expositions to ParseMetrics: no
// panic, no accepted value infinite (the sentinel stands in), and every
// accepted exposition, re-rendered sample by sample, parses back to
// equal samples.
func FuzzParseMetrics(f *testing.F) {
	var real strings.Builder
	if err := obs.WritePrometheus(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.String())
	fixture, _ := allocExposition()
	f.Add(fixture)
	f.Add(escapedExposition)
	for _, seed := range garbageExpositions {
		f.Add(seed)
	}
	f.Add("x{le=\"+Inf\"} +Inf\ny Inf\nz inf\n")
	f.Add("x Infinity\ny -infinity\nz -Inf\nw NaN\n")
	f.Fuzz(func(t *testing.T, in string) {
		samples, err := ParseMetrics(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		for _, s := range samples {
			if math.IsInf(s.Value, 0) {
				t.Fatalf("sample %s has the infinite value %v", s.Name, s.Value)
			}
			renderSample(&b, s)
		}
		back, err := ParseMetrics(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-rendered exposition does not parse: %v\n%s", err, b.String())
		}
		if len(back) != len(samples) {
			t.Fatalf("re-rendered exposition parsed to %d samples, want %d\n%s", len(back), len(samples), b.String())
		}
		for i := range samples {
			if !sameSample(samples[i], back[i]) {
				t.Fatalf("sample %d: parsed %#v, re-rendered and parsed %#v", i, samples[i], back[i])
			}
		}
	})
}
