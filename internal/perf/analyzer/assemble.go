package analyzer

import (
	"slices"
	"strings"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
)

// syncPrescan is the order-free digest of the sync table the fold needs
// before sweeping calls: a wake sync's carrying ocall can end after the
// sync's own timestamp, so short-wake classification must wait for the
// call sweep. refs records how many wake syncs each ocall carries; the
// sweep resolves ShortWakes from it the moment it prices the call.
type syncPrescan struct {
	total, sleeps, wakes int
	refs                 map[events.EventID]int
	wakeAgg              map[[2]int64]int
}

// prescanSyncs digests the sync table chunk-by-chunk. Sync events are
// order-free for every kernel that consumes them, so no sortedness is
// required.
func prescanSyncs(seq ChunkSeq[events.SyncEvent]) (*syncPrescan, error) {
	pre := &syncPrescan{
		refs:    make(map[events.EventID]int),
		wakeAgg: make(map[[2]int64]int),
	}
	for i := 0; i < seq.NumChunks(); i++ {
		rows, err := seq.Chunk(i)
		if err != nil {
			return nil, err
		}
		for j := range rows {
			s := &rows[j]
			pre.total++
			switch s.Kind {
			case events.SyncWake:
				pre.wakes++
				pre.refs[s.Call]++
				for _, t := range s.Targets {
					pre.wakeAgg[[2]int64{int64(s.Thread), int64(t)}]++
				}
			case events.SyncSleep:
				pre.sleeps++
			}
		}
	}
	return pre, nil
}

// foldSwitchless digests the switchless table chunk-by-chunk into the
// shared per-name aggregates (order-free integer sums).
func foldSwitchless(seq ChunkSeq[events.SwitchlessEvent]) (map[string]*SwitchlessAgg, error) {
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

// assembleReport renders the fold delta, the sync prescan and the
// switchless summary into the full Report through the stats and
// detector kernels (kernels.go).
func assembleReport(workload string, cfg *foldConfig, delta *foldDelta, pre *syncPrescan, sw SwitchlessStats, iface *edl.Interface) *Report {
	w := cfg.weights
	r := &Report{Workload: workload, Switchless: sw}

	// order lists the name IDs by name.
	order := make([]int32, len(delta.names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(delta.names[a].name, delta.names[b].name) })
	kindOf := func(name string) events.CallKind {
		if id, ok := delta.ids[name]; ok {
			return delta.names[id].kind
		}
		return 0
	}
	totalOf := func(name string) int {
		if id, ok := delta.ids[name]; ok {
			return delta.names[id].count
		}
		return 0
	}

	stats := make([]CallStats, len(delta.names))
	r.Stats = make([]CallStats, 0, len(order))
	for _, id := range order {
		na := &delta.names[id]
		if s, ok := statsFromHistogram(na.name, na.kind, na.hist, na.totalAEX); ok {
			stats[id] = s
			r.Stats = append(r.Stats, s)
		}
	}
	sortStats(r.Stats)

	g := &CallGraph{}
	for _, id := range order {
		na := &delta.names[id]
		g.Nodes = append(g.Nodes, GraphNode{Name: na.name, Kind: na.kind, CallID: na.callID, Count: na.count})
	}
	// One pass over the pair table renders the graph edges, the merge
	// pairs, each ecall's direct-parent names and the observed allow
	// sets.
	pairs := make(map[mergePair]*MergeAgg)
	parents := make([][]string, len(delta.names))
	observed := make(map[string]map[string]bool)
	for i := range delta.pairs {
		pa := &delta.pairs[i]
		child, parent := delta.names[pa.child].name, delta.names[pa.parent].name
		if pa.direct > 0 {
			g.Edges = append(g.Edges, GraphEdge{From: parent, To: child, Count: pa.direct})
			parents[pa.child] = append(parents[pa.child], parent)
		}
		if pa.indirect.Count > 0 {
			g.Edges = append(g.Edges, GraphEdge{From: parent, To: child, Count: pa.indirect.Count, Indirect: true})
			pairs[mergePair{Parent: parent, Child: child}] = &pa.indirect
		}
		if pa.observed {
			if observed[parent] == nil {
				observed[parent] = make(map[string]bool)
			}
			observed[parent][child] = true
		}
	}
	sortGraphEdges(g.Edges)
	r.Graph = g

	r.Paging = PagingStats{
		PageIns:     delta.paging.pageIns,
		PageOuts:    delta.paging.pageOuts,
		DuringCalls: delta.paging.duringCalls,
		ByRegion:    make(map[string]int, len(delta.paging.byRegion)),
	}
	for region, n := range delta.paging.byRegion {
		r.Paging.ByRegion[region] = n
	}

	r.WakeGraph = wakeEdges(pre.wakeAgg)

	for _, id := range order {
		if f, ok := movingFinding(stats[id], w); ok {
			r.Findings = append(r.Findings, f)
		}
	}
	for _, id := range order {
		na := &delta.names[id]
		r.Findings = append(r.Findings, reorderFindings(na.name, na.kind, na.reorder, w)...)
	}
	r.Findings = append(r.Findings, mergeFindings(pairs, totalOf, kindOf, w)...)
	sa := syncAgg{
		Total:      pre.total,
		Sleeps:     pre.sleeps,
		Wakes:      pre.wakes,
		ShortWakes: delta.shortWakes,
	}
	r.Findings = append(r.Findings, sscFindings(sa, w)...)
	r.Findings = append(r.Findings, pagingFindings(r.Paging, w)...)
	SortFindings(r.Findings)

	// Security hints: make-private, allow-list, user_check.
	for _, id := range order {
		na := &delta.names[id]
		if na.kind != events.KindEcall || na.topLevel {
			continue
		}
		if iface != nil {
			if f, ok := iface.Lookup(na.name); ok && !f.Public {
				continue
			}
		}
		ps := parents[id]
		if ps == nil {
			ps = []string{}
		}
		slices.Sort(ps)
		r.Security = append(r.Security, makePrivateHint(na.name, ps))
	}
	r.Security = append(r.Security, allowHintsFrom(iface, observed, totalOf)...)
	r.Security = append(r.Security, userCheckHintsFor(iface)...)

	return r
}
