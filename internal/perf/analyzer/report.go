package analyzer

import (
	"fmt"
	"strings"
	"time"
)

// Report is the analyser's full output for one trace.
type Report struct {
	Workload  string
	Stats     []CallStats
	Findings  []Finding
	Security  []SecurityHint
	Paging    PagingStats
	WakeGraph []WakeEdge
	// Switchless summarises the switchless runtime's synthetic events —
	// calls that bypass the interposable paths entirely.
	Switchless SwitchlessStats
	Graph      *CallGraph
}

// TotalCalls sums recorded executions over all calls.
func (r *Report) TotalCalls() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Count
	}
	return n
}

// StatsFor returns the statistics of one call name, or ok=false if the
// call never executed.
func (r *Report) StatsFor(call string) (CallStats, bool) {
	for _, s := range r.Stats {
		if s.Name == call {
			return s, true
		}
	}
	return CallStats{}, false
}

// FindingsFor returns the findings concerning one call name.
func (r *Report) FindingsFor(call string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Call == call {
			out = append(out, f)
		}
	}
	return out
}

// HasProblem reports whether any finding of the given problem class
// exists.
func (r *Report) HasProblem(p Problem) bool {
	for _, f := range r.Findings {
		if f.Problem == p {
			return true
		}
	}
	return false
}

// Render produces the human-readable report the sgx-perf analyser prints:
// general statistics, detected problems with ranked recommendations
// (reordering first — it does not grow the TCB, §4.3.2), and security
// hints. The developer remains responsible for checking applicability.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sgx-perf analysis: %s ==\n\n", orUnnamed(r.Workload))

	fmt.Fprintf(&b, "-- general statistics (%d calls) --\n", r.TotalCalls())
	fmt.Fprintf(&b, "%-44s %5s %9s %9s %9s %9s %9s %9s %9s\n",
		"call", "kind", "count", "mean", "median", "stddev", "p90", "p95", "p99")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, "%-44s %5s %9d %9s %9s %9s %9s %9s %9s\n",
			truncate(s.Name, 44), s.Kind, s.Count,
			short(s.Mean), short(s.Median), short(s.Std),
			short(s.P90), short(s.P95), short(s.P99))
	}
	b.WriteString("\n")

	if len(r.Findings) == 0 {
		b.WriteString("-- no performance problems detected --\n")
	} else {
		fmt.Fprintf(&b, "-- detected problems (%d) --\n", len(r.Findings))
		for _, f := range r.Findings {
			fmt.Fprintf(&b, "* [%s] %s", f.Problem, f.Call)
			if f.Partner != "" && f.Partner != f.Call {
				fmt.Fprintf(&b, " (with %s)", f.Partner)
			}
			fmt.Fprintf(&b, "\n    evidence: %s\n", f.Evidence)
			sols := make([]string, len(f.Solutions))
			for i, s := range f.Solutions {
				sols[i] = s.String()
			}
			fmt.Fprintf(&b, "    recommendations (in priority order): %s\n", strings.Join(sols, "; "))
			if f.SecurityNote != "" {
				fmt.Fprintf(&b, "    note: %s\n", f.SecurityNote)
			}
		}
	}
	b.WriteString("\n")

	if r.Paging.PageIns+r.Paging.PageOuts > 0 {
		fmt.Fprintf(&b, "-- paging --\n%d page-ins, %d page-outs (%d during calls)\n",
			r.Paging.PageIns, r.Paging.PageOuts, r.Paging.DuringCalls)
		for region, n := range r.Paging.ByRegion {
			fmt.Fprintf(&b, "    %-8s %d\n", region, n)
		}
		b.WriteString("\n")
	}

	if r.Switchless.Served+r.Switchless.Fallbacks > 0 {
		fmt.Fprintf(&b, "-- switchless calls --\n%d served by workers, %d fell back to transitions\n",
			r.Switchless.Served, r.Switchless.Fallbacks)
		for _, c := range r.Switchless.Calls {
			fmt.Fprintf(&b, "    %-40s %5s %8d served %6d fallback  avg wait %s\n",
				truncate(c.Name, 40), c.Kind, c.Served, c.Fallbacks, short(c.AvgWait))
		}
		b.WriteString("\n")
	}

	if len(r.WakeGraph) > 0 {
		b.WriteString("-- thread wake-up dependencies --\n")
		for _, e := range r.WakeGraph {
			fmt.Fprintf(&b, "    thread %d -> thread %d: %d wake-ups\n", e.From, e.To, e.Count)
		}
		b.WriteString("\n")
	}

	if len(r.Security) > 0 {
		fmt.Fprintf(&b, "-- security hints (%d) --\n", len(r.Security))
		for _, h := range r.Security {
			fmt.Fprintf(&b, "* [%s] %s\n", h.Kind, h.Text)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func orUnnamed(s string) string {
	if s == "" {
		return "(unnamed workload)"
	}
	return s
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// short renders durations compactly with µs precision below 1ms.
func short(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
