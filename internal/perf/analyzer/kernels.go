package analyzer

// The stats and detector kernels: pure functions from accumulated
// aggregates to CallStats and Findings. The fold builds the aggregates
// in one time-ordered sweep (fold.go) and assembleReport runs these
// kernels over them.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"sgxperf/internal/perf/events"
)

// statsFromHistogram computes the §4.3.1 statistics for one call from a
// duration→count histogram of its adjusted execution durations (ecalls:
// transition-subtracted) — the bounded-memory representation the fold
// carries. Percentiles use the nearest-rank
// method. The float accumulations replay the per-execution addition
// sequence over the sorted multiset (one add per execution, ascending),
// so the result depends only on the multiset, never on recording order,
// and is bit-identical to summing a sorted slice of the same durations.
// The histogram is read once, into (duration, count) pairs. Returns
// ok=false for an empty histogram.
func statsFromHistogram(name string, kind events.CallKind, hist map[time.Duration]int, totalAEX int) (CallStats, bool) {
	type bucket struct {
		d time.Duration
		k int
	}
	buckets := make([]bucket, 0, len(hist))
	n := 0
	for d, k := range hist {
		buckets = append(buckets, bucket{d, k})
		n += k
	}
	if n == 0 {
		return CallStats{}, false
	}
	slices.SortFunc(buckets, func(a, b bucket) int { return cmp.Compare(a.d, b.d) })

	s := CallStats{Name: name, Kind: kind, Count: n, TotalAEX: totalAEX}
	var sum float64
	for _, b := range buckets {
		for i := 0; i < b.k; i++ {
			sum += float64(b.d)
		}
		k := float64(b.k)
		switch {
		case b.d < time.Microsecond:
			s.FracBelow1us += k
			fallthrough
		case b.d < 5*time.Microsecond:
			s.FracBelow5us += k
			fallthrough
		case b.d < 10*time.Microsecond:
			s.FracBelow10us += k
		}
	}
	fn := float64(n)
	s.FracBelow1us /= fn
	s.FracBelow5us /= fn
	s.FracBelow10us /= fn

	s.Min, s.Max = buckets[0].d, buckets[len(buckets)-1].d
	s.Mean = time.Duration(sum / fn)

	rank := func(p float64) time.Duration {
		r := int(math.Ceil(p*fn)) - 1
		if r < 0 {
			r = 0
		}
		if r >= n {
			r = n - 1
		}
		cum := 0
		for _, b := range buckets {
			cum += b.k
			if r < cum {
				return b.d
			}
		}
		return s.Max
	}
	s.Median = rank(0.50)
	s.P90 = rank(0.90)
	s.P95 = rank(0.95)
	s.P99 = rank(0.99)

	var varSum float64
	for _, b := range buckets {
		diff := float64(b.d) - float64(s.Mean)
		for i := 0; i < b.k; i++ {
			varSum += diff * diff
		}
	}
	s.Std = time.Duration(math.Sqrt(varSum / fn))
	return s, true
}

// sortStats orders a stats overview by descending execution count,
// preserving the existing (name-sorted) order among equals — the §4.3.1
// overview ordering.
func sortStats(stats []CallStats) {
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Count > stats[j].Count })
}

// movingFinding applies Equation 1 to one call's stats: a call dominated
// by executions shorter than the transition cost should be moved across
// the enclave boundary (ecalls: the SISC problem class; ocalls: SNC, with
// in-enclave duplication as the alternative). Sync ocalls are the SSC
// detector's business and never produce a moving finding.
func movingFinding(s CallStats, w Weights) (Finding, bool) {
	if s.Count == 0 || (s.Kind == events.KindOcall && isSyncName(s.Name)) {
		return Finding{}, false
	}
	if !(s.FracBelow1us >= w.Move1 || s.FracBelow5us >= w.Move5 || s.FracBelow10us >= w.Move10) {
		return Finding{}, false
	}
	f := Finding{
		Call: s.Name,
		Kind: s.Kind,
		Evidence: fmt.Sprintf(
			"%d executions; %.0f%% <1µs, %.0f%% <5µs, %.0f%% <10µs (mean %v)",
			s.Count, s.FracBelow1us*100, s.FracBelow5us*100, s.FracBelow10us*100, s.Mean),
		Score: s.FracBelow10us * float64(s.Count),
	}
	if s.Kind == events.KindEcall {
		f.Problem = ProblemSISC
		f.Solutions = []Solution{SolutionBatch, SolutionMoveCaller}
		f.SecurityNote = "moving an ecall's code outside the enclave may expose sensitive data; perform a security evaluation first (§3.1)"
	} else {
		f.Problem = ProblemSNC
		f.Solutions = []Solution{SolutionReorder, SolutionMoveCaller, SolutionDuplicate}
		f.SecurityNote = "duplicating ocall functionality inside the enclave increases the TCB (§3.3)"
	}
	return f, true
}

// ReorderAgg accumulates the Equation 2 counters for one call name over
// its executions that have a direct parent.
type ReorderAgg struct {
	// Total counts executions with a known direct parent.
	Total int
	// S10/S20 count starts within the first 10µs / 10–20µs of the parent.
	S10, S20 int
	// E10/E20 count ends within the last 10µs / 10–20µs of the parent.
	E10, E20 int
}

// Add accumulates one execution's offsets from its direct parent:
// offsetStart is the distance from the parent's start to the call's
// start, offsetEnd from the call's end to the parent's end.
func (g *ReorderAgg) Add(offsetStart, offsetEnd time.Duration) {
	g.Total++
	switch {
	case offsetStart < micros(10):
		g.S10++
	case offsetStart < micros(20):
		g.S20++
	}
	switch {
	case offsetEnd >= 0 && offsetEnd < micros(10):
		g.E10++
	case offsetEnd >= 0 && offsetEnd < micros(20):
		g.E20++
	}
}

// reorderFindings applies Equation 2 to one call's aggregate: nested
// calls issued in the first (or last) band of their direct parent can
// often execute before (or after) the parent instead, saving transitions
// without TCB changes.
func reorderFindings(name string, kind events.CallKind, g ReorderAgg, w Weights) []Finding {
	if g.Total == 0 {
		return nil
	}
	n := float64(g.Total)
	startScore := float64(g.S10)/n*w.ReorderW10 + float64(g.S20)/n*w.ReorderW20
	endScore := float64(g.E10)/n*w.ReorderW10 + float64(g.E20)/n*w.ReorderW20
	var out []Finding
	report := func(where string, score float64, c10, c20 int) {
		out = append(out, Finding{
			Problem: ProblemSNC,
			Call:    name,
			Kind:    kind,
			Evidence: fmt.Sprintf(
				"%d/%d nested executions within %s 10µs (+%d within 20µs) of the parent (weighted score %.2f ≥ %.2f)",
				c10, g.Total, where, c20, score, w.ReorderThreshold),
			Solutions:    []Solution{SolutionReorder},
			SecurityNote: "",
			Score:        score,
		})
	}
	if startScore >= w.ReorderThreshold {
		report("the first", startScore, g.S10, g.S20)
	}
	if endScore >= w.ReorderThreshold {
		report("the last", endScore, g.E10, g.E20)
	}
	return out
}

// mergePair identifies one (indirect parent, call) name pair.
type mergePair struct {
	Parent, Child string
}

// MergeAgg accumulates the Equation 3 gap-band counters for one pair.
type MergeAgg struct {
	// Count is how often Parent was Child's indirect parent.
	Count int
	// G1/G5/G10/G20 bucket the parent-end→child-start gaps.
	G1, G5, G10, G20 int
}

// Add accumulates one occurrence with the given (non-negative) gap
// between the indirect parent's end and the call's start.
func (g *MergeAgg) Add(gap time.Duration) {
	g.Count++
	switch {
	case gap < micros(1):
		g.G1++
	case gap < micros(5):
		g.G5++
	case gap < micros(10):
		g.G10++
	case gap < micros(20):
		g.G20++
	}
}

// mergeFindings applies Equation 3 over all accumulated pairs. totalOf
// must report the total execution count of a call name and kindOf its
// kind. Batching is the special case of merging with the call being its
// own indirect parent (§4.3.2) and is reported as SISC. The output is
// ordered deterministically by pair name.
func mergeFindings(pairs map[mergePair]*MergeAgg, totalOf func(string) int, kindOf func(string) events.CallKind, w Weights) []Finding {
	keys := make([]mergePair, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Parent != keys[j].Parent {
			return keys[i].Parent < keys[j].Parent
		}
		return keys[i].Child < keys[j].Child
	})
	var out []Finding
	for _, k := range keys {
		agg := pairs[k]
		if isSyncName(k.Child) || isSyncName(k.Parent) {
			continue
		}
		childTotal := totalOf(k.Child)
		parentTotal := totalOf(k.Parent)
		if childTotal == 0 || parentTotal == 0 {
			continue
		}
		// λ: the parent must be the indirect parent of the call most of
		// the time.
		if float64(agg.Count)/float64(childTotal) < w.MergeMinPairFrac {
			continue
		}
		pn := float64(parentTotal)
		score := float64(agg.G1)/pn*w.MergeW1 +
			float64(agg.G5)/pn*w.MergeW5 +
			float64(agg.G10)/pn*w.MergeW10 +
			float64(agg.G20)/pn*w.MergeW20
		if score < w.MergeThreshold {
			continue
		}
		f := Finding{
			Call:    k.Child,
			Kind:    kindOf(k.Child),
			Partner: k.Parent,
			Evidence: fmt.Sprintf(
				"%d executions follow %s closely (gaps: %d<1µs, %d<5µs, %d<10µs, %d<20µs; weighted score %.2f ≥ %.2f)",
				agg.Count, k.Parent, agg.G1, agg.G5, agg.G10, agg.G20, score, w.MergeThreshold),
			Score: score,
		}
		if k.Parent == k.Child {
			f.Problem = ProblemSISC
			f.Solutions = []Solution{SolutionBatch, SolutionMoveCaller}
		} else {
			f.Problem = ProblemSDSC
			f.Solutions = []Solution{SolutionMerge, SolutionMoveCaller}
		}
		out = append(out, f)
	}
	return out
}

// syncAgg accumulates the §4.1.3 sleep/wake counters for the SSC
// detector.
type syncAgg struct {
	// Total is the number of sync events recorded.
	Total int
	// Sleeps and Wakes count the two event kinds.
	Sleeps, Wakes int
	// ShortWakes counts wake-ups whose carrying ocall ran shorter than
	// Weights.SyncShortLimit.
	ShortWakes int
}

// sscFindings applies the §3.4 rule: frequent short wake-ups indicate
// short critical sections where leaving the enclave to sleep is wasteful.
func sscFindings(g syncAgg, w Weights) []Finding {
	if g.Total < w.SyncMinOcalls {
		return nil
	}
	if g.Wakes == 0 && g.Sleeps == 0 {
		return nil
	}
	return []Finding{{
		Problem: ProblemSSC,
		Call:    "sdk synchronisation",
		Kind:    events.KindOcall,
		Evidence: fmt.Sprintf(
			"%d sync ocall events: %d sleeps, %d wake-ups (%d wake-ups <%v)",
			g.Total, g.Sleeps, g.Wakes, g.ShortWakes, w.SyncShortLimit),
		Solutions:    []Solution{SolutionHybridLock, SolutionLockFree},
		SecurityNote: "",
		Score:        float64(g.Total),
	}}
}

// pagingFindings applies the §3.5 rule to a paging summary: every
// page-out requires re-encryption and every fault an AEX, so enclaves
// should rarely page.
func pagingFindings(p PagingStats, w Weights) []Finding {
	if p.PageIns+p.PageOuts < w.PagingMinEvents {
		return nil
	}
	return []Finding{{
		Problem: ProblemPaging,
		Call:    "enclave memory",
		Evidence: fmt.Sprintf(
			"%d page-ins, %d page-outs (%d during calls)",
			p.PageIns, p.PageOuts, p.DuringCalls),
		Solutions: []Solution{SolutionReduceMemory, SolutionPreloadPages, SolutionSelfPaging},
		Score:     float64(p.PageIns + p.PageOuts),
	}}
}

// wakeEdges turns an accumulated (from thread, to thread) → count map
// into the sorted wake-graph edge list of §4.1.3: descending count, then
// by thread pair.
func wakeEdges(agg map[[2]int64]int) []WakeEdge {
	out := make([]WakeEdge, 0, len(agg))
	for k, n := range agg {
		out = append(out, WakeEdge{From: k[0], To: k[1], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// SortFindings orders findings for a report: by problem class, then
// descending score, then by call name, partner, kind and evidence text.
// Every comparison key is part of the order, so the result is one total
// order that does not depend on the order the findings were produced
// in.
func SortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Problem != fs[j].Problem {
			return fs[i].Problem < fs[j].Problem
		}
		if fs[i].Score != fs[j].Score {
			return fs[i].Score > fs[j].Score
		}
		if fs[i].Call != fs[j].Call {
			return fs[i].Call < fs[j].Call
		}
		if fs[i].Partner != fs[j].Partner {
			return fs[i].Partner < fs[j].Partner
		}
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		return fs[i].Evidence < fs[j].Evidence
	})
}
