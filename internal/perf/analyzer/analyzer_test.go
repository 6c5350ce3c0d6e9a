package analyzer

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// builder constructs synthetic traces with µs-resolution timestamps.
type builder struct {
	t     *testing.T
	trace *events.Trace
	freq  vtime.Frequency
}

func newBuilder(t *testing.T) *builder {
	t.Helper()
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	trace.Meta.Insert(events.TraceMeta{
		Workload:    "synthetic",
		FrequencyHz: float64(vtime.DefaultFrequency),
		// Transition subtraction is exercised explicitly where needed;
		// default to zero so durations are literal.
		TransitionCycles: 0,
	})
	return &builder{t: t, trace: trace, freq: vtime.DefaultFrequency}
}

func (b *builder) cyc(us float64) vtime.Cycles {
	return b.freq.Cycles(time.Duration(us * float64(time.Microsecond)))
}

func (b *builder) call(kind events.CallKind, name string, thread int64, startUS, durUS float64, parent events.EventID) events.EventID {
	id := b.trace.NextID()
	ev := events.CallEvent{
		ID:      id,
		Kind:    kind,
		Enclave: 1,
		Thread:  sgx.ThreadID(thread),
		Name:    name,
		Start:   b.cyc(startUS),
		End:     b.cyc(startUS + durUS),
		Parent:  parent,
	}
	if kind == events.KindEcall {
		b.trace.Ecalls.Insert(ev)
	} else {
		b.trace.Ocalls.Insert(ev)
	}
	return id
}

func (b *builder) ecall(name string, thread int64, startUS, durUS float64, parent events.EventID) events.EventID {
	return b.call(events.KindEcall, name, thread, startUS, durUS, parent)
}

func (b *builder) ocall(name string, thread int64, startUS, durUS float64, parent events.EventID) events.EventID {
	return b.call(events.KindOcall, name, thread, startUS, durUS, parent)
}

func (b *builder) analyze(opts Options) *Analyzer {
	b.t.Helper()
	a, err := New(b.trace, opts)
	if err != nil {
		b.t.Fatal(err)
	}
	return a
}

// report analyses the built trace through the production engine.
func (b *builder) report(opts Options) *Report {
	b.t.Helper()
	return b.analyze(opts).Analyze()
}

// findingsOf returns the report's findings of one problem class.
func findingsOf(r *Report, p Problem) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Problem == p {
			out = append(out, f)
		}
	}
	return out
}

// indirectEdges returns the report's indirect-parent edges (Fig. 4) as
// "from->to" → count.
func indirectEdges(r *Report) map[string]int {
	out := make(map[string]int)
	for _, e := range r.Graph.Edges {
		if e.Indirect {
			out[e.From+"->"+e.To] = e.Count
		}
	}
	return out
}

// --- Fig. 4: direct and indirect parents ------------------------------

func TestIndirectParents_Fig4Case1(t *testing.T) {
	// (1) E1 E2 E3 top level: each ecall's indirect parent is the
	// previous one, except the first.
	b := newBuilder(t)
	b.ecall("E1", 1, 0, 10, events.NoEvent)
	b.ecall("E2", 1, 20, 10, events.NoEvent)
	b.ecall("E3", 1, 40, 10, events.NoEvent)
	got := indirectEdges(b.report(Options{}))
	want := map[string]int{"E1->E2": 1, "E2->E3": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("indirect edges = %v, want %v", got, want)
	}
}

func TestIndirectParents_Fig4Case2(t *testing.T) {
	// (2) E1 with O2, O3 nested: O3's indirect parent is O2 (same direct
	// parent E1); O2 has none.
	b := newBuilder(t)
	e1 := b.ecall("E1", 1, 0, 100, events.NoEvent)
	b.ocall("O2", 1, 10, 5, e1)
	b.ocall("O3", 1, 30, 5, e1)
	r := b.report(Options{})
	if got, want := indirectEdges(r), map[string]int{"O2->O3": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("indirect edges = %v, want %v", got, want)
	}
	if r.Graph.EdgeCount("E1", "O2", false) != 1 || r.Graph.EdgeCount("E1", "O3", false) != 1 {
		t.Errorf("direct edges = %+v, want E1->O2 and E1->O3", r.Graph.Edges)
	}
}

func TestIndirectParents_Fig4Case3(t *testing.T) {
	// (3) E1 -> O2 -> E3 (nested ecall during ocall): no indirect parents
	// anywhere.
	b := newBuilder(t)
	e1 := b.ecall("E1", 1, 0, 100, events.NoEvent)
	o2 := b.ocall("O2", 1, 10, 50, e1)
	b.ecall("E3", 1, 20, 10, o2)
	r := b.report(Options{})
	if got := indirectEdges(r); len(got) != 0 {
		t.Errorf("indirect edges = %v, want none", got)
	}
	if r.Graph.EdgeCount("E1", "O2", false) != 1 || r.Graph.EdgeCount("O2", "E3", false) != 1 {
		t.Errorf("direct edges = %+v, want E1->O2->E3", r.Graph.Edges)
	}
}

func TestIndirectParents_Fig4Case4(t *testing.T) {
	// (4) E1, O2 (during E1), then top-level E3: E3's indirect parent is
	// E1 — the call before O2, because O2 is of a different kind.
	b := newBuilder(t)
	e1 := b.ecall("E1", 1, 0, 20, events.NoEvent)
	b.ocall("O2", 1, 5, 5, e1)
	b.ecall("E3", 1, 30, 10, events.NoEvent)
	got := indirectEdges(b.report(Options{}))
	if want := map[string]int{"E1->E3": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("indirect edges = %v, want %v (skipping the ocall)", got, want)
	}
}

func TestIndirectParentsSeparateThreads(t *testing.T) {
	// Calls on different threads never become indirect parents.
	b := newBuilder(t)
	b.ecall("E1", 1, 0, 10, events.NoEvent)
	b.ecall("E2", 2, 20, 10, events.NoEvent)
	if got := indirectEdges(b.report(Options{})); len(got) != 0 {
		t.Errorf("cross-thread indirect edges %v", got)
	}
}

func TestParentResolvesOnlyWhileOpen(t *testing.T) {
	// A Parent link names a call that ended before the child started:
	// the child counts as unparented, and such late children chain as
	// their own indirect-parent group, apart from the children that ran
	// while the parent was open.
	b := newBuilder(t)
	e1 := b.ecall("E1", 1, 0, 20, events.NoEvent)
	b.ocall("O_in", 1, 5, 5, e1)
	b.ocall("O_late1", 1, 30, 5, e1)
	b.ocall("O_late2", 1, 40, 5, e1)
	r := b.report(Options{})
	if r.Graph.EdgeCount("E1", "O_in", false) != 1 {
		t.Errorf("open parent not resolved: edges %+v", r.Graph.Edges)
	}
	for _, late := range []string{"O_late1", "O_late2"} {
		if n := r.Graph.EdgeCount("E1", late, false); n != 0 {
			t.Errorf("closed parent resolved for %s (%d edges)", late, n)
		}
	}
	if got, want := indirectEdges(r), map[string]int{"O_late1->O_late2": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("indirect edges = %v, want %v", got, want)
	}
}

// --- statistics --------------------------------------------------------

func TestStatsBasics(t *testing.T) {
	b := newBuilder(t)
	durations := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // µs
	for i, d := range durations {
		b.ecall("work", 1, float64(i*100), d, events.NoEvent)
	}
	s, ok := b.report(Options{}).StatsFor("work")
	if !ok {
		t.Fatal("no stats for work")
	}
	if s.Count != 10 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Mean.Round(100 * time.Nanosecond); got != 5500*time.Nanosecond {
		t.Errorf("mean = %v, want 5.5µs", got)
	}
	if s.Median < 4900*time.Nanosecond || s.Median > 5100*time.Nanosecond {
		t.Errorf("median = %v, want ≈5µs", s.Median)
	}
	if s.P90 < 8900*time.Nanosecond || s.P90 > 9100*time.Nanosecond {
		t.Errorf("p90 = %v, want ≈9µs", s.P90)
	}
	if s.P99 < 9900*time.Nanosecond || s.P99 > 10100*time.Nanosecond {
		t.Errorf("p99 = %v, want ≈10µs", s.P99)
	}
	if s.Min >= s.Max {
		t.Errorf("min %v >= max %v", s.Min, s.Max)
	}
	// Fractions: 0 below 1µs is false (1µs dur is not <1µs after rounding…
	// durations start at exactly 1µs), 4 below 5µs, 9 below 10µs.
	if s.FracBelow5us < 0.35 || s.FracBelow5us > 0.45 {
		t.Errorf("frac<5µs = %.2f, want 0.4", s.FracBelow5us)
	}
	if s.FracBelow10us < 0.85 || s.FracBelow10us > 0.95 {
		t.Errorf("frac<10µs = %.2f, want 0.9", s.FracBelow10us)
	}
}

func TestStatsTransitionSubtraction(t *testing.T) {
	// §4.1.2: ecall durations include both transitions; the analyser must
	// subtract them. Ocalls are untouched.
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	freq := vtime.DefaultFrequency
	rt := freq.Cycles(2130 * time.Nanosecond)
	trace.Meta.Insert(events.TraceMeta{FrequencyHz: float64(freq), TransitionCycles: int64(rt)})
	mk := func(kind events.CallKind, name string, start, dur time.Duration) {
		ev := events.CallEvent{
			ID: trace.NextID(), Kind: kind, Name: name, Thread: 1,
			Start: freq.Cycles(start), End: freq.Cycles(start + dur),
			Parent: events.NoEvent,
		}
		if kind == events.KindEcall {
			trace.Ecalls.Insert(ev)
		} else {
			trace.Ocalls.Insert(ev)
		}
	}
	mk(events.KindEcall, "e", 0, 10*time.Microsecond)
	mk(events.KindOcall, "o", 100*time.Microsecond, 10*time.Microsecond)
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := a.Analyze()
	es, _ := r.StatsFor("e")
	os, _ := r.StatsFor("o")
	wantE := 10*time.Microsecond - 2130*time.Nanosecond
	if diff := es.Mean - wantE; diff < -50*time.Nanosecond || diff > 50*time.Nanosecond {
		t.Errorf("ecall mean = %v, want %v (transition-adjusted)", es.Mean, wantE)
	}
	if diff := os.Mean - 10*time.Microsecond; diff < -50*time.Nanosecond || diff > 50*time.Nanosecond {
		t.Errorf("ocall mean = %v, want 10µs (unadjusted)", os.Mean)
	}
}

func TestHistogram(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 100; i++ {
		b.ecall("h", 1, float64(i*50), float64(10+i%10), events.NoEvent)
	}
	a := b.analyze(Options{})
	bins := a.Histogram("h", 10)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	for _, bin := range bins {
		total += bin.Count
		if bin.Hi <= bin.Lo {
			t.Fatalf("degenerate bin %+v", bin)
		}
	}
	if total != 100 {
		t.Fatalf("histogram total = %d, want 100", total)
	}
	if a.Histogram("missing", 10) != nil {
		t.Fatal("histogram for unknown call")
	}
}

func TestScatter(t *testing.T) {
	b := newBuilder(t)
	b.ecall("s", 1, 100, 5, events.NoEvent)
	b.ecall("s", 1, 0, 3, events.NoEvent)
	a := b.analyze(Options{})
	pts := a.Scatter("s")
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].T > pts[1].T {
		t.Fatal("scatter not time-ordered")
	}
	if pts[0].T != 0 {
		t.Fatalf("first point at %v, want 0 (relative to first event)", pts[0].T)
	}
}

// --- Equation 1: moving/duplication ------------------------------------

func TestEquation1FlagsShortEcalls(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 100; i++ {
		b.ecall("bn_sub_part_words", 1, float64(i*100), 0.5, events.NoEvent)
	}
	findings := b.report(Options{}).Findings
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(findings))
	}
	f := findings[0]
	if f.Problem != ProblemSISC || f.Call != "bn_sub_part_words" {
		t.Fatalf("finding = %+v", f)
	}
	if f.Solutions[0] != SolutionBatch {
		t.Fatalf("first solution = %v, want batch", f.Solutions[0])
	}
	if f.SecurityNote == "" {
		t.Fatal("moving an ecall out needs a security note (§3.1)")
	}
}

func TestEquation1FlagsShortOcallsAsSNC(t *testing.T) {
	b := newBuilder(t)
	parent := b.ecall("e", 1, 0, 100000, events.NoEvent)
	for i := 0; i < 100; i++ {
		b.ocall("ocall_malloc", 1, float64(100+i*100), 0.8, parent)
	}
	var found *Finding
	for _, f := range b.report(Options{}).FindingsFor("ocall_malloc") {
		f := f
		found = &f
	}
	if found == nil || found.Problem != ProblemSNC {
		t.Fatalf("short ocall not flagged as SNC: %+v", found)
	}
	hasDup := false
	for _, s := range found.Solutions {
		if s == SolutionDuplicate {
			hasDup = true
		}
	}
	if !hasDup {
		t.Fatal("SNC ocall finding lacks the duplicate-inside solution")
	}
}

func TestEquation1IgnoresLongCalls(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 100; i++ {
		b.ecall("long", 1, float64(i*200), 100, events.NoEvent)
	}
	if fs := b.report(Options{}).Findings; len(fs) != 0 {
		t.Fatalf("long calls flagged: %+v", fs)
	}
}

func TestEquation1Boundaries(t *testing.T) {
	// Exactly at threshold: 35% below 1µs fires; 34% does not.
	mk := func(shortCount int) []Finding {
		b := newBuilder(t)
		for i := 0; i < shortCount; i++ {
			b.ecall("x", 1, float64(i*100), 0.5, events.NoEvent)
		}
		for i := shortCount; i < 100; i++ {
			b.ecall("x", 1, float64(i*100), 50, events.NoEvent)
		}
		return b.report(Options{}).Findings
	}
	if fs := mk(35); len(fs) != 1 {
		t.Fatalf("35%% short: findings = %d, want 1", len(fs))
	}
	if fs := mk(34); len(fs) != 0 {
		t.Fatalf("34%% short: findings = %d, want 0", len(fs))
	}
}

// --- Equation 2: reordering --------------------------------------------

func TestEquation2FlagsCallsNearParentStart(t *testing.T) {
	// An ocall always issued 2µs into its ecall: the classic
	// allocate-at-ecall-start pattern (§3.3).
	b := newBuilder(t)
	for i := 0; i < 50; i++ {
		start := float64(i * 1000)
		e := b.ecall("e", 1, start, 500, events.NoEvent)
		b.ocall("ocall_malloc", 1, start+2, 30, e) // long ocall: Eq.1 silent
	}
	findings := b.report(Options{}).Findings
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	f := findings[0]
	if f.Problem != ProblemSNC || f.Call != "ocall_malloc" {
		t.Fatalf("finding = %+v", f)
	}
	if f.Solutions[0] != SolutionReorder {
		t.Fatal("reorder not recommended")
	}
	if !strings.Contains(f.Evidence, "first") {
		t.Fatalf("evidence should mention call position: %s", f.Evidence)
	}
}

func TestEquation2FlagsCallsNearParentEnd(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 50; i++ {
		start := float64(i * 1000)
		e := b.ecall("e", 1, start, 500, events.NoEvent)
		b.ocall("ocall_flush", 1, start+465, 30, e) // ends 5µs before parent end
	}
	findings := b.report(Options{}).Findings
	if len(findings) != 1 || !strings.Contains(findings[0].Evidence, "last") {
		t.Fatalf("findings = %+v", findings)
	}
}

func TestEquation2SilentForMidCalls(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 50; i++ {
		start := float64(i * 1000)
		e := b.ecall("e", 1, start, 500, events.NoEvent)
		b.ocall("ocall_mid", 1, start+250, 30, e)
	}
	if fs := b.report(Options{}).Findings; len(fs) != 0 {
		t.Fatalf("mid-call ocall flagged: %+v", fs)
	}
}

// --- Equation 3: merging/batching ---------------------------------------

func TestEquation3FlagsMergeablePairs(t *testing.T) {
	// The SQLite pattern (§5.2.2): every write ocall directly follows an
	// lseek ocall under the same ecall.
	b := newBuilder(t)
	for i := 0; i < 50; i++ {
		start := float64(i * 1000)
		e := b.ecall("insert", 1, start, 500, events.NoEvent)
		lseek := start + 100
		b.ocall("lseek", 1, lseek, 40, e)
		b.ocall("write", 1, lseek+40.5, 170, e) // 0.5µs gap
	}
	r := b.report(Options{})
	var merge *Finding
	for _, f := range r.Findings {
		if f.Problem == ProblemSDSC && f.Call == "write" && f.Partner == "lseek" {
			f := f
			merge = &f
		}
	}
	if merge == nil {
		t.Fatalf("lseek+write merge not detected: %+v", r.Findings)
	}
	if merge.Solutions[0] != SolutionMerge {
		t.Fatal("merge not the primary solution")
	}
}

func TestEquation3FlagsBatchableRepeats(t *testing.T) {
	// bn_sub_part_words called in tight pairs (§5.2.3): call is its own
	// indirect parent → batching (SISC).
	b := newBuilder(t)
	for i := 0; i < 50; i++ {
		start := float64(i * 1000)
		b.ecall("bn_sub", 1, start, 3, events.NoEvent)
		b.ecall("bn_sub", 1, start+3.2, 3, events.NoEvent)
	}
	r := b.report(Options{})
	var batch *Finding
	for _, f := range r.Findings {
		if f.Problem == ProblemSISC && f.Call == "bn_sub" {
			f := f
			batch = &f
		}
	}
	if batch == nil {
		t.Fatalf("self-batching not detected: %+v", r.Findings)
	}
	if batch.Solutions[0] != SolutionBatch {
		t.Fatal("batch not the primary solution")
	}
}

func TestEquation3SilentForDistantCalls(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 50; i++ {
		start := float64(i * 10000)
		e := b.ecall("e", 1, start, 5000, events.NoEvent)
		b.ocall("a", 1, start+100, 40, e)
		b.ocall("b", 1, start+2000, 40, e) // ~1.9ms gap
	}
	r := b.report(Options{})
	if fs := append(findingsOf(r, ProblemSDSC), findingsOf(r, ProblemSISC)...); len(fs) != 0 {
		t.Fatalf("distant calls flagged for merging: %+v", fs)
	}
}

// --- SSC and paging -----------------------------------------------------

func TestDetectSSC(t *testing.T) {
	b := newBuilder(t)
	parent := b.ecall("handle", 1, 0, 100000, events.NoEvent)
	for i := 0; i < 12; i++ {
		start := float64(10 + i*50)
		oid := b.ocall("sgx_thread_set_untrusted_event_ocall", 1, start, 2, parent)
		b.trace.Syncs.Insert(events.SyncEvent{
			ID: b.trace.NextID(), Kind: events.SyncWake,
			Thread: 1, Targets: []sgx.ThreadID{2}, Time: b.cyc(start), Call: oid,
		})
	}
	r := b.report(Options{})
	findings := findingsOf(r, ProblemSSC)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	sols := findings[0].Solutions
	if sols[0] != SolutionHybridLock && sols[0] != SolutionLockFree {
		t.Fatalf("SSC solutions = %v", sols)
	}
	// Wake graph: thread 1 woke thread 2 twelve times.
	wg := r.WakeGraph
	if len(wg) != 1 || wg[0].From != 1 || wg[0].To != 2 || wg[0].Count != 12 {
		t.Fatalf("wake graph = %+v", wg)
	}
}

func TestDetectSSCBelowThresholdSilent(t *testing.T) {
	b := newBuilder(t)
	parent := b.ecall("handle", 1, 0, 1000, events.NoEvent)
	oid := b.ocall("sgx_thread_set_untrusted_event_ocall", 1, 10, 2, parent)
	b.trace.Syncs.Insert(events.SyncEvent{
		ID: b.trace.NextID(), Kind: events.SyncWake, Thread: 1,
		Targets: []sgx.ThreadID{2}, Time: b.cyc(10), Call: oid,
	})
	if fs := findingsOf(b.report(Options{}), ProblemSSC); len(fs) != 0 {
		t.Fatalf("SSC fired below threshold: %+v", fs)
	}
}

func TestDetectPaging(t *testing.T) {
	b := newBuilder(t)
	e := b.ecall("big", 1, 0, 1000, events.NoEvent)
	_ = e
	for i := 0; i < 5; i++ {
		kind := events.PageIn
		if i%2 == 1 {
			kind = events.PageOut
		}
		b.trace.Paging.Insert(events.PagingEvent{
			ID: b.trace.NextID(), Kind: kind, Enclave: 1, Thread: 1,
			Vaddr: uint64(0x1000 * (i + 1)), PageKind: "heap", Time: b.cyc(float64(10 + i)),
		})
	}
	r := b.report(Options{})
	findings := findingsOf(r, ProblemPaging)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v", findings)
	}
	sum := r.Paging
	if sum.PageIns != 3 || sum.PageOuts != 2 {
		t.Fatalf("paging summary = %+v", sum)
	}
	if sum.DuringCalls != 5 {
		t.Fatalf("during-calls = %d, want 5 (all inside the ecall window)", sum.DuringCalls)
	}
	if sum.ByRegion["heap"] != 5 {
		t.Fatalf("by-region = %+v", sum.ByRegion)
	}
}

// --- security hints ------------------------------------------------------

func TestPrivateEcallCandidates(t *testing.T) {
	b := newBuilder(t)
	e := b.ecall("entry", 1, 0, 1000, events.NoEvent)
	o := b.ocall("ocall_cb", 1, 10, 500, e)
	b.ecall("ecall_nested", 1, 20, 10, o)
	r := b.report(Options{})

	var private *SecurityHint
	for _, h := range r.Security {
		if h.Kind == HintMakePrivate {
			h := h
			private = &h
		}
	}
	if private == nil {
		t.Fatal("no make-private hint")
	}
	if private.Call != "ecall_nested" || len(private.Names) != 1 || private.Names[0] != "ocall_cb" {
		t.Fatalf("hint = %+v", private)
	}
}

func TestShrinkAllowWithEDL(t *testing.T) {
	iface := edl.NewInterface()
	if _, err := iface.AddEcall("entry", true); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddEcall("used", false); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddEcall("unused", false); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddOcall("gate", []string{"used", "unused"}); err != nil {
		t.Fatal(err)
	}

	b := newBuilder(t)
	e := b.ecall("entry", 1, 0, 1000, events.NoEvent)
	o := b.ocall("gate", 1, 10, 500, e)
	b.ecall("used", 1, 20, 10, o)
	r := b.report(Options{Interface: iface})

	var shrink *SecurityHint
	for _, h := range r.Security {
		if h.Kind == HintShrinkAllow {
			h := h
			shrink = &h
		}
	}
	if shrink == nil {
		t.Fatal("no shrink-allow hint")
	}
	if shrink.Call != "gate" || len(shrink.Names) != 1 || shrink.Names[0] != "unused" {
		t.Fatalf("hint = %+v", shrink)
	}
}

func TestMinimalAllowWithoutEDL(t *testing.T) {
	b := newBuilder(t)
	e := b.ecall("entry", 1, 0, 1000, events.NoEvent)
	o := b.ocall("gate", 1, 10, 500, e)
	b.ecall("nested", 1, 20, 10, o)
	r := b.report(Options{})

	var minimal *SecurityHint
	for _, h := range r.Security {
		if h.Kind == HintMinimalAllow {
			h := h
			minimal = &h
		}
	}
	if minimal == nil {
		t.Fatal("no minimal-allow hint without EDL")
	}
	if minimal.Call != "gate" || len(minimal.Names) != 1 || minimal.Names[0] != "nested" {
		t.Fatalf("hint = %+v", minimal)
	}
}

func TestUserCheckHints(t *testing.T) {
	iface := edl.NewInterface()
	if _, err := iface.AddEcall("e", true, edl.Param{Name: "p", Dir: edl.DirUserCheck}); err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t)
	b.ecall("e", 1, 0, 10, events.NoEvent)
	r := b.report(Options{Interface: iface})
	var uc *SecurityHint
	for _, h := range r.Security {
		if h.Kind == HintUserCheck {
			h := h
			uc = &h
		}
	}
	if uc == nil || uc.Call != "e" || uc.Names[0] != "p" {
		t.Fatalf("user_check hint = %+v", uc)
	}
}

func TestAlreadyPrivateEcallNotSuggested(t *testing.T) {
	iface := edl.NewInterface()
	if _, err := iface.AddEcall("nested", false); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddEcall("entry", true); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddOcall("gate", []string{"nested"}); err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t)
	e := b.ecall("entry", 1, 0, 1000, events.NoEvent)
	o := b.ocall("gate", 1, 10, 500, e)
	b.ecall("nested", 1, 20, 10, o)
	r := b.report(Options{Interface: iface})
	for _, h := range r.Security {
		if h.Kind == HintMakePrivate && h.Call == "nested" {
			t.Fatal("already-private ecall suggested as private candidate")
		}
	}
}

// --- call graph -----------------------------------------------------------

func TestCallGraphShapeAndDOT(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 3; i++ {
		start := float64(i * 1000)
		e := b.ecall("SSL_read", 1, start, 100, events.NoEvent)
		b.ocall("ocall_read", 1, start+10, 20, e)
	}
	g := b.report(Options{}).Graph

	n, ok := g.Node("SSL_read")
	if !ok || n.Kind != events.KindEcall || n.Count != 3 {
		t.Fatalf("node = %+v", n)
	}
	if c := g.EdgeCount("SSL_read", "ocall_read", false); c != 3 {
		t.Fatalf("direct edge count = %d", c)
	}
	if c := g.EdgeCount("SSL_read", "SSL_read", true); c != 2 {
		t.Fatalf("indirect self edge count = %d", c)
	}
	dot := g.DOT()
	for _, want := range []string{"digraph", "shape=box", "shape=ellipse", "style=dashed", "style=solid", "SSL_read"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// --- catalogue and report -------------------------------------------------

func TestCatalogueMatchesTable1(t *testing.T) {
	cat := Catalogue()
	want := map[Problem][]Solution{
		ProblemSISC:   {SolutionBatch, SolutionMoveCaller},
		ProblemSDSC:   {SolutionMerge, SolutionMoveCaller},
		ProblemSNC:    {SolutionReorder, SolutionDuplicate},
		ProblemSSC:    {SolutionLockFree, SolutionHybridLock},
		ProblemPaging: {SolutionReduceMemory, SolutionPreloadPages, SolutionSelfPaging},
		ProblemPermissiveInterface: {
			SolutionLimitPublicEcalls, SolutionLimitEcallsFromOcalls, SolutionCheckPointers,
		},
		ProblemReentrancy: {SolutionLimitEcallsFromOcalls, SolutionRemoveDead},
		ProblemLargeCopies: {
			SolutionReduceCopies, SolutionSwitchless, SolutionMoveCaller,
		},
		ProblemTransitionBound: {SolutionSwitchless, SolutionBatch, SolutionDuplicate},
		ProblemBoundarySync:    {SolutionReorder, SolutionHybridLock, SolutionLockFree},
		ProblemTransitionAmplification: {
			SolutionBatch, SolutionSwitchless, SolutionMoveCaller,
		},
		ProblemBoundaryDataHazard: {SolutionCheckPointers, SolutionReduceCopies},
		ProblemSecretLeak: {
			SolutionCheckPointers, SolutionReduceCopies, SolutionMoveCaller,
		},
		ProblemDirectionMismatch: {SolutionCheckPointers, SolutionReduceCopies},
	}
	if len(cat) != len(want) {
		t.Fatalf("catalogue has %d problems, want %d", len(cat), len(want))
	}
	for p, sols := range want {
		got := cat[p]
		if len(got) != len(sols) {
			t.Fatalf("%v: %v, want %v", p, got, sols)
		}
		for i := range sols {
			if got[i] != sols[i] {
				t.Fatalf("%v solution %d = %v, want %v", p, i, got[i], sols[i])
			}
		}
	}
}

func TestReportRender(t *testing.T) {
	b := newBuilder(t)
	for i := 0; i < 100; i++ {
		b.ecall("tiny", 1, float64(i*10), 0.4, events.NoEvent)
	}
	a := b.analyze(Options{})
	r := a.Analyze()
	if !r.HasProblem(ProblemSISC) {
		t.Fatal("expected a SISC finding")
	}
	if fs := r.FindingsFor("tiny"); len(fs) == 0 {
		t.Fatal("FindingsFor empty")
	}
	text := r.Render()
	for _, want := range []string{
		"sgx-perf analysis", "general statistics", "detected problems",
		"tiny", "batch calls", "recommendations (in priority order)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	if r.TotalCalls() != 100 {
		t.Fatalf("total calls = %d", r.TotalCalls())
	}
}

func TestReportNoFindingsOnQuietTrace(t *testing.T) {
	b := newBuilder(t)
	b.ecall("fine", 1, 0, 1000, events.NoEvent)
	r := b.analyze(Options{}).Analyze()
	if len(r.Findings) != 0 {
		t.Fatalf("quiet trace produced findings: %+v", r.Findings)
	}
	if !strings.Contains(r.Render(), "no performance problems detected") {
		t.Fatal("render should say no problems were found")
	}
}

func TestCompareTraces(t *testing.T) {
	// Baseline: many short ecalls. Optimised: they were batched away.
	before := newBuilder(t)
	for i := 0; i < 200; i++ {
		before.ecall("bn_sub", 1, float64(i*10), 0.5, events.NoEvent)
	}
	before.ecall("ecall_mul", 1, 5000, 50, events.NoEvent)
	after := newBuilder(t)
	for i := 0; i < 10; i++ {
		after.ecall("ecall_mul", 1, float64(i*100), 55, events.NoEvent)
	}
	cmp := Compare(before.report(Options{}), after.report(Options{}))
	if cmp.CallsA != 201 || cmp.CallsB != 10 {
		t.Fatalf("calls = %d/%d", cmp.CallsA, cmp.CallsB)
	}
	if cmp.TransitionsSaved() != 191 {
		t.Fatalf("saved = %d", cmp.TransitionsSaved())
	}
	var sub, mul *CompareRow
	for i := range cmp.Rows {
		switch cmp.Rows[i].Name {
		case "bn_sub":
			sub = &cmp.Rows[i]
		case "ecall_mul":
			mul = &cmp.Rows[i]
		}
	}
	if sub == nil || mul == nil {
		t.Fatalf("rows = %+v", cmp.Rows)
	}
	if sub.CountA != 200 || sub.CountB != 0 {
		t.Fatalf("sub row = %+v", sub)
	}
	if mul.CountA != 1 || mul.CountB != 10 {
		t.Fatalf("mul row = %+v", mul)
	}
	text := cmp.Render()
	for _, want := range []string{"trace comparison", "bn_sub", "ecall_mul", "-191 transitions"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

func TestEnclaveFilter(t *testing.T) {
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	trace.Meta.Insert(events.TraceMeta{FrequencyHz: float64(vtime.DefaultFrequency)})
	mk := func(enclave int, name string) {
		trace.Ecalls.Insert(events.CallEvent{
			ID: trace.NextID(), Kind: events.KindEcall, Name: name,
			Enclave: sgx.EnclaveID(enclave), Thread: 1,
			Start:  vtime.DefaultFrequency.Cycles(time.Microsecond),
			End:    vtime.DefaultFrequency.Cycles(2 * time.Microsecond),
			Parent: events.NoEvent,
		})
	}
	mk(1, "a")
	mk(1, "a")
	mk(2, "b")

	names := func(r *Report) []string {
		var out []string
		for _, s := range r.Stats {
			out = append(out, s.Name)
		}
		sort.Strings(out)
		return out
	}
	analyze := func(opts Options) *Report {
		a, err := New(trace, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a.Analyze()
	}
	if got := names(analyze(Options{})); len(got) != 2 {
		t.Fatalf("unfiltered names = %v", got)
	}
	only1 := analyze(Options{Enclave: 1})
	if got := names(only1); len(got) != 1 || got[0] != "a" {
		t.Fatalf("filtered names = %v", got)
	}
	if s, ok := only1.StatsFor("a"); !ok || s.Count != 2 {
		t.Fatalf("filtered stats = %+v", s)
	}
	if _, ok := only1.StatsFor("b"); ok {
		t.Fatal("foreign enclave's call leaked through the filter")
	}
}
