package analyzer

import (
	"fmt"
	"strings"
)

// The paper's analyser "can generate histograms for the call execution
// times as well as scatter plots" (§4.3.1, Figs. 7–8). This file provides
// the plot-ready exports: CSV data plus gnuplot scripts that render in
// the figures' style.

// StatsCSV renders the report's per-call statistics table as CSV
// (durations in nanoseconds).
func (r *Report) StatsCSV() string {
	var b strings.Builder
	b.WriteString("call,kind,count,mean_ns,median_ns,stddev_ns,p90_ns,p95_ns,p99_ns,min_ns,max_ns,frac_below_1us,frac_below_5us,frac_below_10us,total_aex\n")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.4f,%.4f,%d\n",
			csvEscape(s.Name), s.Kind, s.Count,
			s.Mean.Nanoseconds(), s.Median.Nanoseconds(), s.Std.Nanoseconds(),
			s.P90.Nanoseconds(), s.P95.Nanoseconds(), s.P99.Nanoseconds(),
			s.Min.Nanoseconds(), s.Max.Nanoseconds(),
			s.FracBelow1us, s.FracBelow5us, s.FracBelow10us, s.TotalAEX)
	}
	return b.String()
}

// HistogramCSV renders one call's histogram as CSV: bin low/high bounds
// in nanoseconds and the count (Fig. 7's data).
func (a *Analyzer) HistogramCSV(name string, bins int) (string, error) {
	hist := a.Histogram(name, bins)
	if hist == nil {
		return "", fmt.Errorf("analyzer: no events for call %q", name)
	}
	var b strings.Builder
	b.WriteString("bin_lo_ns,bin_hi_ns,count\n")
	for _, bin := range hist {
		fmt.Fprintf(&b, "%d,%d,%d\n", bin.Lo.Nanoseconds(), bin.Hi.Nanoseconds(), bin.Count)
	}
	return b.String(), nil
}

// ScatterCSV renders one call's executions over application time as CSV
// (Fig. 8's data).
func (a *Analyzer) ScatterCSV(name string) (string, error) {
	pts := a.Scatter(name)
	if pts == nil {
		return "", fmt.Errorf("analyzer: no events for call %q", name)
	}
	var b strings.Builder
	b.WriteString("t_since_start_ns,execution_ns\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%d,%d\n", p.T.Nanoseconds(), p.Dur.Nanoseconds())
	}
	return b.String(), nil
}

// WakeGraphCSV renders the report's thread wake-up dependencies
// (§4.1.3).
func (r *Report) WakeGraphCSV() string {
	var b strings.Builder
	b.WriteString("waker_thread,woken_thread,count\n")
	for _, e := range r.WakeGraph {
		fmt.Fprintf(&b, "%d,%d,%d\n", e.From, e.To, e.Count)
	}
	return b.String()
}

// GnuplotHistogram returns a gnuplot script rendering a HistogramCSV file
// in the style of Fig. 7 (execution time on x, count on y).
func GnuplotHistogram(call, csvPath, outPath string) string {
	return fmt.Sprintf(`set terminal pdfcairo size 10cm,7cm
set output %q
set datafile separator ","
set title "%s"
set xlabel "Execution time (µs)"
set ylabel "# of Executions"
set style fill solid 0.8
set boxwidth 0.9 relative
plot %q using (($1+$2)/2000.0):3 every ::1 with boxes notitle
`, outPath, gnuplotEscape(call), csvPath)
}

// GnuplotScatter returns a gnuplot script rendering a ScatterCSV file in
// the style of Fig. 8 (time since application start on x, execution time
// on y).
func GnuplotScatter(call, csvPath, outPath string) string {
	return fmt.Sprintf(`set terminal pdfcairo size 10cm,7cm
set output %q
set datafile separator ","
set title "%s"
set xlabel "Time since application start (ns)"
set ylabel "Execution time (ns)"
plot %q using 1:2 every ::1 with points pointtype 7 pointsize 0.2 notitle
`, outPath, gnuplotEscape(call), csvPath)
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func gnuplotEscape(s string) string {
	return strings.ReplaceAll(s, "_", `\_`)
}
