package analyzer

import (
	"slices"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/vtime"
)

// CallStats are the general statistics of §4.3.1 for one call, computed
// over execution durations (ecalls: transition-adjusted, §4.1.2).
type CallStats struct {
	Name  string
	Kind  events.CallKind
	Count int

	Mean   time.Duration
	Median time.Duration
	Std    time.Duration
	P90    time.Duration
	P95    time.Duration
	P99    time.Duration
	Min    time.Duration
	Max    time.Duration

	// Short-call fractions feeding Equation 1.
	FracBelow1us  float64
	FracBelow5us  float64
	FracBelow10us float64

	// TotalAEX sums AEXs over all executions (ecalls only).
	TotalAEX int
}

// HistogramBin is one bucket of call execution times (Fig. 7).
type HistogramBin struct {
	Lo, Hi time.Duration
	Count  int
}

// Histogram buckets the named call's execution times into bins
// equal-width bins (the paper groups into 100, Fig. 7). It scans the
// trace for that one call.
func (a *Analyzer) Histogram(name string, bins int) []HistogramBin {
	if bins <= 0 {
		return nil
	}
	var durs []time.Duration
	a.scanCalls(func(ev *events.CallEvent, adjusted time.Duration) {
		if ev.Name == name {
			durs = append(durs, adjusted)
		}
	})
	if len(durs) == 0 {
		return nil
	}
	lo, hi := slices.Min(durs), slices.Max(durs)
	width := (hi - lo) / time.Duration(bins)
	if width <= 0 {
		width = 1
	}
	out := make([]HistogramBin, bins)
	for i := range out {
		out[i].Lo = lo + time.Duration(i)*width
		out[i].Hi = out[i].Lo + width
	}
	for _, d := range durs {
		out[min(int((d-lo)/width), bins-1)].Count++
	}
	return out
}

// ScatterPoint is one call execution plotted over application time
// (Fig. 8).
type ScatterPoint struct {
	// T is the call's start relative to the first event in the trace.
	T time.Duration
	// Dur is the call's execution time.
	Dur time.Duration
}

// Scatter returns the named call's execution times over the course of
// the run, in start order. It scans the trace for that one call.
func (a *Analyzer) Scatter(name string) []ScatterPoint {
	type point struct {
		ev  events.CallEvent
		dur time.Duration
	}
	var (
		pts   []point
		first vtime.Cycles
		seen  bool
	)
	a.scanCalls(func(ev *events.CallEvent, adjusted time.Duration) {
		if !seen || ev.Start < first {
			first, seen = ev.Start, true
		}
		if ev.Name == name {
			pts = append(pts, point{*ev, adjusted})
		}
	})
	if len(pts) == 0 {
		return nil
	}
	slices.SortFunc(pts, func(x, y point) int {
		return callKey{x.ev.Start, x.ev.ID}.compare(callKey{y.ev.Start, y.ev.ID})
	})
	freq := a.trace.Frequency()
	out := make([]ScatterPoint, len(pts))
	for i, p := range pts {
		out[i] = ScatterPoint{T: freq.Duration(p.ev.Start - first), Dur: p.dur}
	}
	return out
}
