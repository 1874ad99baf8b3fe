package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): every registered
// instrument rendered as `# HELP` / `# TYPE` comments followed by its
// samples, histograms with the full cumulative `_bucket{le=...}` series
// plus `_sum` and `_count`. blueprintd serves this at GET /metrics.

func bucketSuffix(le float64) string {
	return `_bucket{le="` + formatFloat(le) + `"}`
}

// EscapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double quote and newline must be escaped or a hostile
// value (a tenant name is client-controlled via X-Tenant) could break out
// of its label and forge samples.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every instrument in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	items := make(map[string]metric, len(names))
	for _, n := range names {
		items[n] = r.items[n]
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		m := items[n]
		if help := m.metricHelp(); help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, strings.ReplaceAll(help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, m.metricType())
		m.sample(func(suffix string, v float64) {
			b.WriteString(n)
			b.WriteString(suffix)
			b.WriteByte(' ')
			b.WriteString(formatFloat(v))
			b.WriteByte('\n')
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot flattens the registry into name->value pairs for in-process
// readers (the repository benchmark's per-layer ledger); remote readers
// scrape /metrics. Counters and gauges contribute their value under their
// own name; histograms contribute `_count`, `_sum` and interpolated
// `_p50`/`_p95`/`_p99` entries.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	items := make(map[string]metric, len(r.items))
	for n, m := range r.items {
		items[n] = m
	}
	r.mu.Unlock()

	out := make(map[string]float64, len(items)*2)
	for n, m := range items {
		if h, ok := m.(*Histogram); ok {
			qs := h.Quantiles(0.5, 0.95, 0.99)
			out[n+"_count"] = float64(h.Count())
			out[n+"_sum"] = h.Sum()
			out[n+"_p50"] = qs[0]
			out[n+"_p95"] = qs[1]
			out[n+"_p99"] = qs[2]
			continue
		}
		m.sample(func(suffix string, v float64) {
			out[n+suffix] = v
		})
	}
	return out
}
