package analyzer

import (
	"sort"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/vtime"
)

// SwitchlessCallStats summarises one call name's switchless activity.
type SwitchlessCallStats struct {
	Name string
	Kind events.CallKind
	// Served counts calls serviced by a pool worker, Fallbacks calls
	// that took the regular transition path because the queue was full.
	Served    int
	Fallbacks int
	// AvgWait is the mean submit→collect latency of served calls.
	AvgWait time.Duration
}

// SwitchlessStats summarises the switchless runtime's activity in a
// trace: the served/fallback totals the blind-spot fix makes visible.
type SwitchlessStats struct {
	Served    int
	Fallbacks int
	// Calls holds the per-name rows, sorted by name.
	Calls []SwitchlessCallStats
}

// SwitchlessAgg is the integer accumulator behind SwitchlessCallStats.
// The fold's switchless prescan folds events into it and
// SwitchlessStatsFrom renders it; integer sums commute, so the stats do
// not depend on event order.
type SwitchlessAgg struct {
	Kind       events.CallKind
	Served     int
	Fallbacks  int
	WaitCycles vtime.Cycles
}

// switchlessFold folds one event into a per-name aggregate map.
func switchlessFold(agg map[string]*SwitchlessAgg, ev *events.SwitchlessEvent) {
	a := agg[ev.Name]
	if a == nil {
		a = &SwitchlessAgg{Kind: ev.Kind}
		agg[ev.Name] = a
	}
	if ev.Fallback {
		a.Fallbacks++
		return
	}
	a.Served++
	a.WaitCycles += ev.End - ev.Start
}

// SwitchlessStatsFrom renders per-name aggregates into the final stats.
// Only integer arithmetic (the mean is an integer cycle division), so
// identical aggregates give identical stats regardless of fold order.
func SwitchlessStatsFrom(agg map[string]*SwitchlessAgg, freq vtime.Frequency) SwitchlessStats {
	var out SwitchlessStats
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := agg[n]
		out.Served += a.Served
		out.Fallbacks += a.Fallbacks
		row := SwitchlessCallStats{Name: n, Kind: a.Kind, Served: a.Served, Fallbacks: a.Fallbacks}
		if a.Served > 0 {
			row.AvgWait = freq.Duration(a.WaitCycles / vtime.Cycles(a.Served))
		}
		out.Calls = append(out.Calls, row)
	}
	return out
}
