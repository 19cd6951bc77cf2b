package obsv

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"attila/internal/obsv/trace"
)

// This file renders the run's metrics in the OpenMetrics text
// exposition format (the /metrics.prom endpoint), so any Prometheus-
// compatible scraper can watch a run without
// understanding our NDJSON. Families:
//
//	attila_run_cycles                gauge: latest simulated cycle
//	attila_spans_sampled_total       counter: terminated sampled spans
//	attila_counter_total{stat=...}   every simulator counter
//	attila_gauge{stat=...}           every simulator gauge
//	attila_span_latency_cycles{client=...,phase=...}  histograms
//
// The histograms are the span collector's log2-bucket latencies with
// the standard cumulative `le` buckets. WriteOpenMetrics emits keys
// in sorted order, so the output is deterministic for a given
// simulation state.

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fmtFloat renders a sample value without exponent noise for
// integers.
func fmtFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteOpenMetrics renders the bus's cumulative statistics and the
// span collector's latency histograms (either may be nil) as an
// OpenMetrics text page terminated by # EOF.
func WriteOpenMetrics(w io.Writer, bus *Bus, spans *trace.Collector) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if bus != nil {
		fmt.Fprintf(bw, "# TYPE attila_run_cycles gauge\nattila_run_cycles %d\n", bus.Cycle())
		vals, gauges := bus.StatTotals()
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		var counters, gaugeNames []string
		for _, n := range names {
			if gauges[n] {
				gaugeNames = append(gaugeNames, n)
			} else {
				counters = append(counters, n)
			}
		}
		if len(counters) > 0 {
			fmt.Fprintln(bw, "# TYPE attila_counter_total counter")
			for _, n := range counters {
				fmt.Fprintf(bw, "attila_counter_total{stat=%q} %s\n", escapeLabel(n), fmtFloat(vals[n]))
			}
		}
		if len(gaugeNames) > 0 {
			fmt.Fprintln(bw, "# TYPE attila_gauge gauge")
			for _, n := range gaugeNames {
				fmt.Fprintf(bw, "attila_gauge{stat=%q} %s\n", escapeLabel(n), fmtFloat(vals[n]))
			}
		}
	}
	if spans != nil {
		sum := spans.Snapshot()
		fmt.Fprintf(bw, "# TYPE attila_spans_sampled_total counter\nattila_spans_sampled_total %d\n", sum.Spans)
		if len(sum.Clients) > 0 {
			fmt.Fprintln(bw, "# TYPE attila_span_latency_cycles histogram")
			for _, cl := range sum.Clients {
				writeHist(bw, cl.Name, "total", &cl.Total.Hist)
				writeHist(bw, cl.Name, "wait", &cl.Wait.Hist)
				writeHist(bw, cl.Name, "service", &cl.Service.Hist)
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// writeHist renders one histogram with cumulative le buckets. Empty
// trailing buckets are folded into +Inf to keep pages compact.
func writeHist(w io.Writer, client, phase string, h *trace.Histogram) {
	labels := fmt.Sprintf("client=%q,phase=%q", escapeLabel(client), escapeLabel(phase))
	var cum uint64
	last := 0
	for i, b := range h.Buckets {
		if b != 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "attila_span_latency_cycles_bucket{%s,le=\"%d\"} %d\n", labels, trace.BucketUpper(i), cum)
	}
	fmt.Fprintf(w, "attila_span_latency_cycles_bucket{%s,le=\"+Inf\"} %d\n", labels, h.N)
	fmt.Fprintf(w, "attila_span_latency_cycles_sum{%s} %d\n", labels, h.Sum)
	fmt.Fprintf(w, "attila_span_latency_cycles_count{%s} %d\n", labels, h.N)
}

// LintOpenMetrics validates an exposition page against the rules that
// commonly break scrapers: every series must be named and declared
// with a TYPE, counters must end in _total, no duplicate series, le
// buckets must be cumulative, and the page must end with # EOF. Used
// by the make-check test over /metrics.prom.
func LintOpenMetrics(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	types := make(map[string]string)
	seen := make(map[string]bool)
	lastBucket := make(map[string]uint64) // series-minus-le -> last cumulative count
	sawEOF := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if sawEOF {
			return fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if name == "" {
					return fmt.Errorf("openmetrics: line %d: unnamed TYPE declaration", lineNo)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("openmetrics: line %d: duplicate TYPE for %s", lineNo, name)
				}
				if typ == "counter" && !strings.HasSuffix(name, "_total") {
					return fmt.Errorf("openmetrics: line %d: counter %s must end in _total", lineNo, name)
				}
				types[name] = typ
			}
			continue
		}
		// Sample line: name value, or name{labels} value. The series
		// identity is the name plus its full label block.
		var series, valStr string
		open, end := strings.Index(line, "{"), strings.Index(line, "}")
		if open >= 0 && end > open {
			series = line[:end+1]
			valStr = strings.TrimSpace(line[end+1:])
		} else if sp := strings.Index(line, " "); sp > 0 {
			series = line[:sp]
			valStr = strings.TrimSpace(line[sp+1:])
		} else {
			return fmt.Errorf("openmetrics: line %d: sample has no value: %q", lineNo, line)
		}
		name := series
		if open >= 0 && open < len(name) {
			name = series[:open]
		}
		if name == "" {
			return fmt.Errorf("openmetrics: line %d: unnamed series", lineNo)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name {
				if t, ok := types[base]; ok && t == "histogram" {
					family = base
				}
				break
			}
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("openmetrics: line %d: series %s has no TYPE declaration", lineNo, name)
		}
		if seen[series] {
			return fmt.Errorf("openmetrics: line %d: duplicate series %s", lineNo, series)
		}
		seen[series] = true
		// Cumulative le check for histogram buckets.
		if strings.HasSuffix(name, "_bucket") {
			val, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				return fmt.Errorf("openmetrics: line %d: bucket value %q: %v", lineNo, valStr, err)
			}
			base := series
			if i := strings.Index(base, ",le="); i >= 0 {
				base = base[:i]
			} else if i := strings.Index(base, "{le="); i >= 0 {
				base = base[:i] // le is the only label
			}
			if val < lastBucket[base] {
				return fmt.Errorf("openmetrics: line %d: bucket counts for %s not cumulative", lineNo, base)
			}
			lastBucket[base] = val
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawEOF {
		return fmt.Errorf("openmetrics: page not terminated by # EOF")
	}
	return nil
}
