package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"camouflage/internal/obs"
)

// MetricSample is one parsed Prometheus exposition sample.
type MetricSample struct {
	// Name is the sample name (family name, or family_bucket /
	// family_sum / family_count for histogram series).
	Name string
	// Labels holds the sample's label pairs (nil for none).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// Key renders the sample's identity (name plus sorted label pairs) in
// canonical form, e.g. `camouflage_pac_auths_total{key="IA"}`.
func (s MetricSample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Metrics scrapes GET /metrics and returns the parsed samples in
// exposition order.
func (c *Client) Metrics(ctx context.Context) ([]MetricSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp.Body)
	if resp.StatusCode/100 != 2 {
		return nil, &APIError{Status: resp.StatusCode, Message: resp.Status}
	}
	return ParseMetrics(resp.Body)
}

// RunTrace retrieves the structured trace of a run previously reported
// through a RunID field (GET /v1/runs/{id}/trace).
func (c *Client) RunTrace(ctx context.Context, id string) (*obs.RunTrace, error) {
	var out obs.RunTrace
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+id+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ParseMetrics parses Prometheus text exposition format (the subset
// the daemon emits: # comments, samples with optional label sets, no
// timestamps or escapes beyond \" \\ \n inside label values).
func ParseMetrics(r io.Reader) ([]MetricSample, error) {
	var out []MetricSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(text string) (MetricSample, error) {
	var s MetricSample
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("unterminated label set")
		}
		labels, err := parseLabels(rest[i+1 : j])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("want 'name value', got %q", text)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parseValue parses a sample value. Every infinity strconv.ParseFloat
// accepts ("+Inf", "inf", "Infinity", "-infinity", ...) comes back as
// ±obs.Inf64(), so parsed samples survive encoding/json; a finite
// literal too large for a float64 is an error.
func parseValue(text string) (float64, error) {
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, err
	}
	if math.IsInf(v, 0) {
		return math.Copysign(obs.Inf64(), v), nil
	}
	return v, nil
}

// labelUnescaper undoes the three escapes the exposition format allows
// inside label values. A Replacer is safe for concurrent use and builds
// its lookup table once, on first use.
var labelUnescaper = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n")

func parseLabels(text string) (map[string]string, error) {
	labels := map[string]string{}
	for text != "" {
		eq := strings.IndexByte(text, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", text)
		}
		name := strings.TrimSpace(text[:eq])
		rest := strings.TrimSpace(text[eq+1:])
		if len(rest) < 2 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", text)
		}
		// Find the closing quote, honouring \" escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value in %q", text)
		}
		val := rest[1:end]
		if strings.IndexByte(val, '\\') >= 0 {
			val = labelUnescaper.Replace(val)
		}
		labels[name] = val
		text = strings.TrimPrefix(strings.TrimSpace(rest[end+1:]), ",")
		text = strings.TrimSpace(text)
	}
	return labels, nil
}
