package analyzer

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sgxperf/internal/perf/events"
)

// Comparing two traces is the paper's workflow in §5.2: record a
// baseline, apply a recommendation, record again, and check that the
// transitions went away. Compare aligns two traces' reports by call name
// and reports the deltas.

// CompareRow is one call's before/after numbers.
type CompareRow struct {
	Name string
	Kind events.CallKind
	// Counts and mean execution times in each trace (zero when absent).
	CountA, CountB int
	MeanA, MeanB   time.Duration
	// TotalA/TotalB approximate the call's aggregate execution time.
	TotalA, TotalB time.Duration
}

// Comparison is the result of Compare.
type Comparison struct {
	WorkloadA, WorkloadB string
	Rows                 []CompareRow
	// CallsA/CallsB are total call events — each one is an enclave
	// transition round trip, the quantity the recommendations minimise.
	CallsA, CallsB int
}

// Compare aligns two reports' statistics by call name.
func Compare(a, b *Report) *Comparison {
	out := &Comparison{WorkloadA: a.Workload, WorkloadB: b.Workload}
	rows := make(map[string]*CompareRow)
	row := func(name string, kind events.CallKind) *CompareRow {
		r, ok := rows[name]
		if !ok {
			r = &CompareRow{Name: name, Kind: kind}
			rows[name] = r
		}
		return r
	}
	for _, s := range a.Stats {
		r := row(s.Name, s.Kind)
		r.CountA = s.Count
		r.MeanA = s.Mean
		r.TotalA = time.Duration(s.Count) * s.Mean
		out.CallsA += s.Count
	}
	for _, s := range b.Stats {
		r := row(s.Name, s.Kind)
		r.CountB = s.Count
		r.MeanB = s.Mean
		r.TotalB = time.Duration(s.Count) * s.Mean
		out.CallsB += s.Count
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, *r)
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		ti := out.Rows[i].TotalA + out.Rows[i].TotalB
		tj := out.Rows[j].TotalA + out.Rows[j].TotalB
		if ti != tj {
			return ti > tj
		}
		return out.Rows[i].Name < out.Rows[j].Name
	})
	return out
}

// TransitionsSaved returns how many call events (≈ transition round
// trips) the second trace avoids relative to the first.
func (c *Comparison) TransitionsSaved() int { return c.CallsA - c.CallsB }

// Render formats the comparison.
func (c *Comparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== trace comparison: %s vs %s ==\n",
		orUnnamed(c.WorkloadA), orUnnamed(c.WorkloadB))
	fmt.Fprintf(&b, "call events: %d -> %d (%+d transitions", c.CallsA, c.CallsB, c.CallsB-c.CallsA)
	if c.CallsA > 0 {
		fmt.Fprintf(&b, ", %.1f%%", float64(c.CallsB-c.CallsA)/float64(c.CallsA)*100)
	}
	b.WriteString(")\n\n")
	fmt.Fprintf(&b, "%-44s %5s %9s %9s %10s %10s\n",
		"call", "kind", "count A", "count B", "mean A", "mean B")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-44s %5s %9d %9d %10s %10s\n",
			truncate(r.Name, 44), r.Kind, r.CountA, r.CountB, short(r.MeanA), short(r.MeanB))
	}
	return b.String()
}
