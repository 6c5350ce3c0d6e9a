package analyzer

// The serial reference scan: a second, deliberately naive computation
// of the full report, kept only as a test oracle for the fold. It
// materialises every call, sorts them by (Start, ID), resolves parents
// through a global ID index and runs each kernel over the prepared
// calls one after another — duration multisets instead of histograms,
// a linear scan for paging-during-call attribution. It applies the
// fold's parent rule (see Analyzer.Analyze): a Parent link resolves
// only to a call that sorted earlier and has not ended when the child
// starts, and children that start after their parent ended form their
// own indirect-parent group.

import (
	"math"
	"sort"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/vtime"
)

// refCall is one prepared call with its derived fields.
type refCall struct {
	ev       events.CallEvent
	adjusted time.Duration
	// parent and indirect index the resolved direct parent and the
	// indirect parent in reference.all, or -1.
	parent, indirect int
	// gap is the time between the indirect parent's end and this call's
	// start.
	gap time.Duration
}

type reference struct {
	trace  *events.Trace
	w      Weights
	iface  *edl.Interface
	freq   vtime.Frequency
	all    []refCall
	byName map[string][]int
	names  []string
}

// referenceReport computes the report the slow way.
func referenceReport(trace *events.Trace, opts Options) *Report {
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	r := &reference{
		trace:  trace,
		w:      opts.Weights,
		iface:  opts.Interface,
		freq:   trace.Frequency(),
		byName: make(map[string][]int),
	}
	if r.iface == nil {
		r.iface = interfaceFromMetas(trace.Enclaves.Rows())
	}
	r.prepare(opts)

	rep := &Report{Workload: r.workload()}
	rep.Stats = r.allStats()
	rep.Graph = r.callGraph()
	rep.Paging = r.pagingSummary()
	rep.WakeGraph = r.wakeGraph()
	rep.Switchless = r.switchlessSummary()
	rep.Findings = append(rep.Findings, r.detectMoving()...)
	rep.Findings = append(rep.Findings, r.detectReordering()...)
	rep.Findings = append(rep.Findings, r.detectMerging()...)
	rep.Findings = append(rep.Findings, r.detectSSC()...)
	rep.Findings = append(rep.Findings, pagingFindings(rep.Paging, r.w)...)
	SortFindings(rep.Findings)
	rep.Security = append(rep.Security, r.privateCandidates()...)
	rep.Security = append(rep.Security, r.allowHints()...)
	rep.Security = append(rep.Security, userCheckHintsFor(r.iface)...)
	return rep
}

func (r *reference) workload() string {
	if r.trace.Meta.Len() > 0 {
		return r.trace.Meta.At(0).Workload
	}
	return ""
}

// prepare merges both call tables, sorts by (Start, ID), and resolves
// direct parents, offsets and indirect parents (Fig. 4).
func (r *reference) prepare(opts Options) {
	transition := r.trace.TransitionCycles()
	for _, tbl := range []func(func(int, events.CallEvent) bool){r.trace.Ecalls.Scan, r.trace.Ocalls.Scan} {
		tbl(func(_ int, ev events.CallEvent) bool {
			if opts.Enclave != 0 && ev.Enclave != opts.Enclave {
				return true
			}
			adj := r.freq.Duration(ev.Duration())
			if ev.Kind == events.KindEcall {
				adj = r.freq.Duration(ev.Duration() - transition)
				if adj < 0 {
					adj = 0
				}
			}
			r.all = append(r.all, refCall{ev: ev, adjusted: adj, parent: -1, indirect: -1})
			return true
		})
	}
	sort.SliceStable(r.all, func(i, j int) bool {
		if r.all[i].ev.Start != r.all[j].ev.Start {
			return r.all[i].ev.Start < r.all[j].ev.Start
		}
		return r.all[i].ev.ID < r.all[j].ev.ID
	})

	byID := make(map[events.EventID]int, len(r.all))
	for i := range r.all {
		byID[r.all[i].ev.ID] = i
	}
	// Indirect parents: within each (thread, kind, Parent link, late)
	// group, in start order, the indirect parent is the previous call.
	type groupKey struct {
		thread int64
		kind   events.CallKind
		parent events.EventID
		late   bool
	}
	last := make(map[groupKey]int)
	for i := range r.all {
		c := &r.all[i]
		r.byName[c.ev.Name] = append(r.byName[c.ev.Name], i)
		late := false
		if pi, ok := byID[c.ev.Parent]; ok && c.ev.Parent != events.NoEvent && pi < i {
			if r.all[pi].ev.End >= c.ev.Start {
				c.parent = pi
			} else {
				late = true
			}
		}
		k := groupKey{int64(c.ev.Thread), c.ev.Kind, c.ev.Parent, late}
		if pi, ok := last[k]; ok {
			c.indirect = pi
			c.gap = r.freq.Duration(c.ev.Start - r.all[pi].ev.End)
			if c.gap < 0 {
				c.gap = 0
			}
		}
		last[k] = i
	}
	for n := range r.byName {
		r.names = append(r.names, n)
	}
	sort.Strings(r.names)
}

func (r *reference) calls(name string) []*refCall {
	out := make([]*refCall, 0, len(r.byName[name]))
	for _, i := range r.byName[name] {
		out = append(out, &r.all[i])
	}
	return out
}

func (r *reference) kindOf(name string) events.CallKind {
	if idx := r.byName[name]; len(idx) > 0 {
		return r.all[idx[0]].ev.Kind
	}
	return 0
}

func (r *reference) totalOf(name string) int { return len(r.byName[name]) }

func (r *reference) stats(name string) (CallStats, bool) {
	calls := r.calls(name)
	if len(calls) == 0 {
		return CallStats{}, false
	}
	durs := make([]time.Duration, len(calls))
	totalAEX := 0
	for i, c := range calls {
		durs[i] = c.adjusted
		totalAEX += c.ev.AEXCount
	}
	return statsFromDurations(name, calls[0].ev.Kind, durs, totalAEX)
}

func (r *reference) allStats() []CallStats {
	out := make([]CallStats, 0, len(r.names))
	for _, n := range r.names {
		if s, ok := r.stats(n); ok {
			out = append(out, s)
		}
	}
	sortStats(out)
	return out
}

// statsFromDurations computes the §4.3.1 statistics from the multiset of
// adjusted durations: sort, sum in sorted order, nearest-rank
// percentiles.
func statsFromDurations(name string, kind events.CallKind, durs []time.Duration, totalAEX int) (CallStats, bool) {
	if len(durs) == 0 {
		return CallStats{}, false
	}
	s := CallStats{Name: name, Kind: kind, Count: len(durs), TotalAEX: totalAEX}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var sum float64
	for _, d := range durs {
		sum += float64(d)
		switch {
		case d < time.Microsecond:
			s.FracBelow1us++
			fallthrough
		case d < 5*time.Microsecond:
			s.FracBelow5us++
			fallthrough
		case d < 10*time.Microsecond:
			s.FracBelow10us++
		}
	}
	n := float64(len(durs))
	s.FracBelow1us /= n
	s.FracBelow5us /= n
	s.FracBelow10us /= n

	s.Min, s.Max = durs[0], durs[len(durs)-1]
	s.Mean = time.Duration(sum / n)
	s.Median = percentile(durs, 0.50)
	s.P90 = percentile(durs, 0.90)
	s.P95 = percentile(durs, 0.95)
	s.P99 = percentile(durs, 0.99)

	var varSum float64
	for _, d := range durs {
		diff := float64(d) - float64(s.Mean)
		varSum += diff * diff
	}
	s.Std = time.Duration(math.Sqrt(varSum / n))
	return s, true
}

// percentile returns the p-quantile (0..1) of sorted durations using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

func (r *reference) callGraph() *CallGraph {
	g := &CallGraph{}
	for _, name := range r.names {
		calls := r.calls(name)
		g.Nodes = append(g.Nodes, GraphNode{
			Name: name, Kind: calls[0].ev.Kind, CallID: calls[0].ev.CallID, Count: len(calls),
		})
	}
	type edgeKey struct {
		from, to string
		indirect bool
	}
	agg := make(map[edgeKey]int)
	for i := range r.all {
		c := &r.all[i]
		if c.parent >= 0 {
			agg[edgeKey{r.all[c.parent].ev.Name, c.ev.Name, false}]++
		}
		if c.indirect >= 0 {
			agg[edgeKey{r.all[c.indirect].ev.Name, c.ev.Name, true}]++
		}
	}
	for k, n := range agg {
		g.Edges = append(g.Edges, GraphEdge{From: k.from, To: k.to, Count: n, Indirect: k.indirect})
	}
	sortGraphEdges(g.Edges)
	return g
}

// pagingSummary attributes each paging event to calls by a linear scan.
func (r *reference) pagingSummary() PagingStats {
	out := PagingStats{ByRegion: make(map[string]int)}
	r.trace.Paging.Scan(func(_ int, p events.PagingEvent) bool {
		if p.Kind == events.PageIn {
			out.PageIns++
		} else {
			out.PageOuts++
		}
		out.ByRegion[p.PageKind]++
		for i := range r.all {
			c := &r.all[i]
			if c.ev.Thread == p.Thread && c.ev.Start <= p.Time && p.Time <= c.ev.End {
				out.DuringCalls++
				break
			}
		}
		return true
	})
	return out
}

func (r *reference) wakeGraph() []WakeEdge {
	agg := make(map[[2]int64]int)
	r.trace.Syncs.Scan(func(_ int, s events.SyncEvent) bool {
		if s.Kind == events.SyncWake {
			for _, t := range s.Targets {
				agg[[2]int64{int64(s.Thread), int64(t)}]++
			}
		}
		return true
	})
	return wakeEdges(agg)
}

func (r *reference) switchlessSummary() SwitchlessStats {
	agg := make(map[string]*SwitchlessAgg)
	r.trace.Switchless.Scan(func(_ int, ev events.SwitchlessEvent) bool {
		switchlessFold(agg, &ev)
		return true
	})
	return SwitchlessStatsFrom(agg, r.freq)
}

func (r *reference) detectMoving() []Finding {
	var out []Finding
	for _, name := range r.names {
		if s, ok := r.stats(name); ok {
			if f, ok := movingFinding(s, r.w); ok {
				out = append(out, f)
			}
		}
	}
	return out
}

func (r *reference) detectReordering() []Finding {
	var out []Finding
	for _, name := range r.names {
		var agg ReorderAgg
		for _, c := range r.calls(name) {
			if c.parent >= 0 {
				p := r.all[c.parent].ev
				agg.Add(r.freq.Duration(c.ev.Start-p.Start), r.freq.Duration(p.End-c.ev.End))
			}
		}
		out = append(out, reorderFindings(name, r.kindOf(name), agg, r.w)...)
	}
	return out
}

func (r *reference) detectMerging() []Finding {
	pairs := make(map[mergePair]*MergeAgg)
	for i := range r.all {
		c := &r.all[i]
		if c.indirect < 0 {
			continue
		}
		k := mergePair{Parent: r.all[c.indirect].ev.Name, Child: c.ev.Name}
		if pairs[k] == nil {
			pairs[k] = &MergeAgg{}
		}
		pairs[k].Add(c.gap)
	}
	return mergeFindings(pairs, r.totalOf, r.kindOf, r.w)
}

func (r *reference) detectSSC() []Finding {
	agg := syncAgg{Total: r.trace.Syncs.Len()}
	byCall := make(map[events.EventID]time.Duration)
	for i := range r.all {
		byCall[r.all[i].ev.ID] = r.all[i].adjusted
	}
	r.trace.Syncs.Scan(func(_ int, s events.SyncEvent) bool {
		switch s.Kind {
		case events.SyncWake:
			agg.Wakes++
			if d, ok := byCall[s.Call]; ok && d < r.w.SyncShortLimit {
				agg.ShortWakes++
			}
		case events.SyncSleep:
			agg.Sleeps++
		}
		return true
	})
	return sscFindings(agg, r.w)
}

// privateCandidates finds ecalls every execution of which had a Parent
// link; the hint names the resolved parents.
func (r *reference) privateCandidates() []SecurityHint {
	var out []SecurityHint
	for _, name := range r.names {
		if r.kindOf(name) != events.KindEcall {
			continue
		}
		if r.iface != nil {
			if f, ok := r.iface.Lookup(name); ok && !f.Public {
				continue
			}
		}
		parents := make(map[string]bool)
		nested := true
		for _, c := range r.calls(name) {
			if c.ev.Parent == events.NoEvent {
				nested = false
				break
			}
			if c.parent >= 0 {
				parents[r.all[c.parent].ev.Name] = true
			}
		}
		if nested {
			out = append(out, makePrivateHint(name, sortedKeys(parents)))
		}
	}
	return out
}

func (r *reference) allowHints() []SecurityHint {
	observed := make(map[string]map[string]bool)
	for i := range r.all {
		c := &r.all[i]
		if c.ev.Kind != events.KindEcall || c.parent < 0 {
			continue
		}
		pn := r.all[c.parent].ev.Name
		if observed[pn] == nil {
			observed[pn] = make(map[string]bool)
		}
		observed[pn][c.ev.Name] = true
	}
	return allowHintsFrom(r.iface, observed, r.totalOf)
}
