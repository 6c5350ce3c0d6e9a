package analyzer

import (
	"sort"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
)

// SyncPrescan is the order-free digest of the sync table the fold needs
// before sweeping calls: a wake sync's carrying ocall can end after the
// sync's own timestamp, so short-wake classification must wait for the
// call sweep. Refs records how many wake syncs each ocall carries; the
// sweep resolves ShortWakes from it the moment it prices the call.
type SyncPrescan struct {
	Total, Sleeps, Wakes int
	Refs                 map[events.EventID]int
	WakeAgg              map[[2]int64]int
}

// PrescanSyncs digests the sync table chunk-by-chunk. Sync events are
// order-free for every kernel that consumes them, so no sortedness is
// required.
func PrescanSyncs(seq ChunkSeq[events.SyncEvent]) (*SyncPrescan, error) {
	pre := &SyncPrescan{
		Refs:    make(map[events.EventID]int),
		WakeAgg: make(map[[2]int64]int),
	}
	for i := 0; i < seq.NumChunks(); i++ {
		rows, err := seq.Chunk(i)
		if err != nil {
			return nil, err
		}
		for j := range rows {
			s := &rows[j]
			pre.Total++
			switch s.Kind {
			case events.SyncWake:
				pre.Wakes++
				pre.Refs[s.Call]++
				for _, t := range s.Targets {
					pre.WakeAgg[[2]int64{int64(s.Thread), int64(t)}]++
				}
			case events.SyncSleep:
				pre.Sleeps++
			}
		}
	}
	return pre, nil
}

// FoldSwitchless digests the switchless table chunk-by-chunk into the
// shared per-name aggregates (order-free integer sums).
func FoldSwitchless(seq ChunkSeq[events.SwitchlessEvent]) (map[string]*SwitchlessAgg, error) {
	agg := make(map[string]*SwitchlessAgg)
	for i := 0; i < seq.NumChunks(); i++ {
		rows, err := seq.Chunk(i)
		if err != nil {
			return nil, err
		}
		for j := range rows {
			switchlessFold(agg, &rows[j])
		}
	}
	return agg, nil
}

// AssembleReport renders the merged fold delta, the sync prescan and
// the switchless summary into the full Report through the stats and
// detector kernels (kernels.go).
func AssembleReport(workload string, cfg *FoldConfig, delta *FoldDelta, pre *SyncPrescan, sw SwitchlessStats, iface *edl.Interface) *Report {
	w := cfg.Weights
	r := &Report{Workload: workload, Switchless: sw}

	names := make([]string, 0, len(delta.Names))
	for n := range delta.Names {
		names = append(names, n)
	}
	sort.Strings(names)
	kindOf := func(name string) events.CallKind {
		if na := delta.Names[name]; na != nil {
			return na.Kind
		}
		return 0
	}
	totalOf := func(name string) int {
		if na := delta.Names[name]; na != nil {
			return na.Count
		}
		return 0
	}

	statByName := make(map[string]CallStats, len(names))
	r.Stats = make([]CallStats, 0, len(names))
	for _, n := range names {
		na := delta.Names[n]
		if s, ok := statsFromHistogram(n, na.Kind, na.Hist, na.TotalAEX); ok {
			statByName[n] = s
			r.Stats = append(r.Stats, s)
		}
	}
	sortStats(r.Stats)

	g := &CallGraph{}
	for _, n := range names {
		na := delta.Names[n]
		g.Nodes = append(g.Nodes, GraphNode{Name: n, Kind: na.Kind, CallID: na.CallID, Count: na.Count})
	}
	pairs := make(map[mergePair]*MergeAgg)
	for _, n := range names {
		na := delta.Names[n]
		for p, count := range na.Parents {
			g.Edges = append(g.Edges, GraphEdge{From: p, To: n, Count: count})
		}
		for p, agg := range na.Indirect {
			g.Edges = append(g.Edges, GraphEdge{From: p, To: n, Count: agg.Count, Indirect: true})
			pairs[mergePair{Parent: p, Child: n}] = agg
		}
	}
	sortGraphEdges(g.Edges)
	r.Graph = g

	r.Paging = PagingStats{
		PageIns:     delta.Paging.PageIns,
		PageOuts:    delta.Paging.PageOuts,
		DuringCalls: delta.Paging.DuringCalls,
		ByRegion:    make(map[string]int, len(delta.Paging.ByRegion)),
	}
	for region, n := range delta.Paging.ByRegion {
		r.Paging.ByRegion[region] = n
	}

	r.WakeGraph = wakeEdges(pre.WakeAgg)

	for _, n := range names {
		if f, ok := movingFinding(statByName[n], w); ok {
			r.Findings = append(r.Findings, f)
		}
	}
	for _, n := range names {
		na := delta.Names[n]
		r.Findings = append(r.Findings, reorderFindings(n, na.Kind, na.Reorder, w)...)
	}
	r.Findings = append(r.Findings, mergeFindings(pairs, totalOf, kindOf, w)...)
	sa := syncAgg{
		Total:      pre.Total,
		Sleeps:     pre.Sleeps,
		Wakes:      pre.Wakes,
		ShortWakes: delta.ShortWakes,
	}
	r.Findings = append(r.Findings, sscFindings(sa, w)...)
	r.Findings = append(r.Findings, pagingFindings(r.Paging, w)...)
	SortFindings(r.Findings)

	// Security hints: make-private, allow-list, user_check.
	for _, n := range names {
		na := delta.Names[n]
		if na.Kind != events.KindEcall || na.TopLevel {
			continue
		}
		if iface != nil {
			if f, ok := iface.Lookup(n); ok && !f.Public {
				continue
			}
		}
		r.Security = append(r.Security, makePrivateHint(n, sortedKeys(na.Parents)))
	}
	r.Security = append(r.Security, allowHintsFrom(iface, delta.Observed, totalOf)...)
	r.Security = append(r.Security, userCheckHintsFor(iface)...)

	return r
}
