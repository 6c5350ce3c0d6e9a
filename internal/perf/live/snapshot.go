package live

import (
	"sort"
	"time"

	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/pool"
)

// Counts are the raw event totals the collector has observed, per table.
type Counts struct {
	Ecalls     int `json:"ecalls"`
	Ocalls     int `json:"ocalls"`
	Syncs      int `json:"syncs"`
	AEXs       int `json:"aexs"`
	Paging     int `json:"paging"`
	Switchless int `json:"switchless"`
}

// Rates are sliding-window event rates in events per second of virtual
// time, over the window the snapshot reports.
type Rates struct {
	Window time.Duration `json:"window"`
	Ecalls float64       `json:"ecalls_per_sec"`
	Ocalls float64       `json:"ocalls_per_sec"`
	AEXs   float64       `json:"aexs_per_sec"`
	Paging float64       `json:"paging_per_sec"`
}

// Snapshot is one consistent view of the live analysis: totals and rates
// for dashboards, plus the analyser-grade statistics and findings. After
// the workload quiesces and Drain returns, Stats, Findings, Paging and
// WakeGraph equal the post-mortem analyser's report over the same trace.
type Snapshot struct {
	Workload string `json:"workload"`
	Counts   Counts `json:"counts"`
	Rates    Rates  `json:"rates"`

	Stats      []analyzer.CallStats     `json:"stats"`
	Findings   []analyzer.Finding       `json:"findings"`
	Paging     analyzer.PagingStats     `json:"paging_summary"`
	WakeGraph  []analyzer.WakeEdge      `json:"wake_graph"`
	Switchless analyzer.SwitchlessStats `json:"switchless"`
}

// Snapshot computes the current view from the incremental aggregates by
// running the shared analyser kernels. It is safe to call at any time,
// concurrently with recording; its cost is the kernels (walking the
// duration histograms, scoring the detectors), independent of how the
// aggregates were built.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.opts.Weights

	s := Snapshot{
		Workload: c.workload,
		Counts:   Counts{Ecalls: c.nEcalls, Ocalls: c.nOcalls, Syncs: c.nSyncs, AEXs: c.nAEX, Paging: c.nPage, Switchless: c.nSwls},
		Rates: Rates{
			Window: c.opts.Window,
			Ecalls: c.ecallRing.rate(c.freq),
			Ocalls: c.ocallRing.rate(c.freq),
			AEXs:   c.aexRing.rate(c.freq),
			Paging: c.pageRing.rate(c.freq),
		},
	}

	names := make([]string, 0, len(c.perName))
	for n := range c.perName {
		names = append(names, n)
	}
	sort.Strings(names)

	// Stats: the per-name duration histograms through the shared
	// kernels, one partition per name on the worker pool (sorting each
	// histogram's distinct durations dominates snapshot cost). Results
	// land in per-name slots and are assembled in sorted-name order, so
	// the output is identical to the serial loop.
	type nameResult struct {
		stats   analyzer.CallStats
		ok      bool
		moving  []analyzer.Finding
		reorder []analyzer.Finding
	}
	res := make([]nameResult, len(names))
	//sgxperf:allow(heldacross) c.mu guards the aggregates being read; ForEach is bounded CPU work with an inline fallback, and no task touches the collector lock
	pool.ForEach(len(names), func(i int) {
		na := c.perName[names[i]]
		if st, ok := analyzer.StatsFromHistogram(names[i], na.kind, na.hist, na.totalAEX); ok {
			res[i].stats, res[i].ok = st, true
			res[i].moving = appendMoving(nil, st, w)
		}
		res[i].reorder = analyzer.ReorderFindings(names[i], na.kind, na.reorder, w)
	})
	s.Stats = make([]analyzer.CallStats, 0, len(names))
	for i := range res {
		if res[i].ok {
			s.Findings = append(s.Findings, res[i].moving...)
			s.Stats = append(s.Stats, res[i].stats)
		}
	}
	analyzer.SortStats(s.Stats)

	// Reordering: the accumulated direct-parent offset bands.
	for i := range res {
		s.Findings = append(s.Findings, res[i].reorder...)
	}

	// Merging: consecutive pairs within each indirect-parent group.
	pairs := make(map[analyzer.MergePair]*analyzer.MergeAgg)
	for _, g := range c.groups {
		for i := 1; i < len(g); i++ {
			k := analyzer.MergePair{Parent: g[i-1].name, Child: g[i].name}
			agg := pairs[k]
			if agg == nil {
				agg = &analyzer.MergeAgg{}
				pairs[k] = agg
			}
			gap := c.freq.Duration(g[i].start - g[i-1].end)
			if gap < 0 {
				gap = 0
			}
			agg.Add(gap)
		}
	}
	totalOf := func(name string) int {
		if na := c.perName[name]; na != nil {
			return na.count
		}
		return 0
	}
	kindOf := func(name string) (k events.CallKind) {
		if na := c.perName[name]; na != nil {
			k = na.kind
		}
		return k
	}
	s.Findings = append(s.Findings, analyzer.MergeFindings(pairs, totalOf, kindOf, w)...)

	s.Findings = append(s.Findings, analyzer.SSCFindings(c.syncAgg, w)...)

	s.Paging = c.paging
	s.Paging.ByRegion = make(map[string]int, len(c.paging.ByRegion))
	for k, v := range c.paging.ByRegion {
		s.Paging.ByRegion[k] = v
	}
	s.Findings = append(s.Findings, analyzer.PagingFindings(s.Paging, w)...)

	analyzer.SortFindings(s.Findings)
	s.WakeGraph = analyzer.WakeEdges(c.wakeAgg)
	s.Switchless = analyzer.SwitchlessStatsFrom(c.switchless, c.freq)
	return s
}

// appendMoving applies the Equation 1 kernel to one call's stats.
func appendMoving(fs []analyzer.Finding, st analyzer.CallStats, w analyzer.Weights) []analyzer.Finding {
	if f, ok := analyzer.MovingFinding(st, w); ok {
		fs = append(fs, f)
	}
	return fs
}
