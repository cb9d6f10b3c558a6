package trace

import (
	"fmt"
	"io"
	"strings"
)

// Plain-text and CSV summary exporters. Both iterate exclusively over
// sorted key slices (never raw map ranges) so the output is deterministic
// and shrimplint-clean.

// Summary renders a human-readable report: span stats by total virtual time
// descending, then counters, gauges, and histograms in (track, name) order.
func (c *Collector) Summary() string {
	var b strings.Builder
	if c == nil {
		return ""
	}

	stats := c.SpanStats()
	if len(stats) > 0 {
		b.WriteString("spans (by total virtual time):\n")
		fmt.Fprintf(&b, "  %-14s %-22s %10s %14s %14s %14s\n",
			"track", "name", "count", "total_us", "mean_us", "max_us")
		for _, st := range stats {
			mean := float64(st.Total) / float64(st.Count)
			fmt.Fprintf(&b, "  %-14s %-22s %10d %14.3f %14.3f %14.3f\n",
				st.Track, st.Name, st.Count,
				usec(st.Total), mean/1e3, usec(st.Max))
		}
	}
	if c.spansDropped > 0 {
		// A MaxSpans cap truncated the span list; say so rather than let
		// the span table above pass for the whole run.
		fmt.Fprintf(&b, "spans dropped: %d\n", c.spansDropped)
	}

	if len(c.counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(c.counters) {
			fmt.Fprintf(&b, "  %-14s %-22s %14d\n", k.Track, k.Name, c.counters[k])
		}
	}

	if len(c.gauges) > 0 {
		b.WriteString("gauges (high-water):\n")
		for _, k := range sortedKeys(c.gauges) {
			g := c.gauges[k]
			fmt.Fprintf(&b, "  %-14s %-22s %14d  (%d samples)\n", k.Track, k.Name, g.max, len(g.samples))
		}
	}

	if len(c.hists) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(c.hists) {
			fmt.Fprintf(&b, "  %-14s %-22s %s\n", k.Track, k.Name, c.hists[k])
		}
	}
	return b.String()
}

// CSV renders the aggregated data as a single flat CSV: one row per
// instrument, typed by the kind column. Rows are ordered kind-major
// (span, counter, gauge, hist), then by the section's deterministic order.
func (c *Collector) CSV() string {
	var b strings.Builder
	b.WriteString("kind,track,name,count,total_ns,max_ns,value\n")
	if c == nil {
		return b.String()
	}
	for _, st := range c.SpanStats() {
		fmt.Fprintf(&b, "span,%s,%s,%d,%d,%d,\n", st.Track, st.Name, st.Count, st.Total, st.Max)
	}
	for _, k := range sortedKeys(c.counters) {
		fmt.Fprintf(&b, "counter,%s,%s,,,,%d\n", k.Track, k.Name, c.counters[k])
	}
	for _, k := range sortedKeys(c.gauges) {
		g := c.gauges[k]
		fmt.Fprintf(&b, "gauge,%s,%s,%d,,,%d\n", k.Track, k.Name, len(g.samples), g.max)
	}
	for _, k := range sortedKeys(c.hists) {
		h := c.hists[k]
		fmt.Fprintf(&b, "hist,%s,%s,%d,,,%d\n", k.Track, k.Name, h.N, h.Sum)
	}
	return b.String()
}

// WriteTopSpans prints the n largest span aggregates to w, a compact view
// for CLI -stats output and the quickstart demo.
func (c *Collector) WriteTopSpans(w io.Writer, n int) {
	stats := c.TopSpans(n)
	if len(stats) == 0 {
		fmt.Fprintln(w, "trace: no spans recorded")
		return
	}
	fmt.Fprintf(w, "%-14s %-22s %10s %14s %14s\n", "track", "name", "count", "total_us", "max_us")
	for _, st := range stats {
		fmt.Fprintf(w, "%-14s %-22s %10d %14.3f %14.3f\n",
			st.Track, st.Name, st.Count, usec(st.Total), usec(st.Max))
	}
}
