package staticlint

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sgxperf/internal/edl"
	"sgxperf/internal/lint"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sdk"
)

// RankedFinding is one static finding joined with trace evidence: how
// often the concerned call actually executed, and the re-ranked score.
type RankedFinding struct {
	analyzer.Finding
	// Observed is the number of recorded executions of Finding.Call (zero
	// in a pure static report, or when the call never ran).
	Observed int
	// HybridScore is Score weighted by the observed executions
	// (Score × log2(1+Observed)); hybrid reports sort on it.
	HybridScore float64
}

// DynamicOnly is one call observed in the trace but absent from the
// interface under analysis.
type DynamicOnly struct {
	Name  string
	Kind  events.CallKind
	Count int
	// Note explains known benign cases (the SDK sync ocalls, which
	// CreateEnclave adds to every interface).
	Note string
}

// Static produces a Report from the interface alone — findings with no
// workload run. When Options.SourceRoot is set, the concurrency dataflow
// pass over the workload sources contributes its findings too, merged
// and sorted with the interface ones; a source-analysis failure degrades
// to a report warning rather than an error.
func Static(iface *edl.Interface, opts Options) *Report {
	r := &Report{Source: SourceStatic, Summary: summarise(iface)}
	findings := Analyze(iface, opts)
	if opts.SourceRoot != "" {
		// One parsed, type-checked tree feeds every source pass: the
		// concurrency dataflow engine, the interprocedural call graph and
		// the taint engine. Before the shared lint.Tree each pass re-parsed
		// and re-type-checked the repo from scratch.
		tree, err := lint.LoadTree(opts.SourceRoot)
		if err != nil {
			r.Warnings = append(r.Warnings, fmt.Sprintf("staticlint: source analysis: %v", err))
		} else {
			findings = append(findings, analyzeSourceTree(tree, opts.SourceDirs, opts)...)
			inter, preds := analyzeInterprocTree(tree, opts.SourceDirs, opts)
			findings = append(findings, inter...)
			r.Predicted = preds
			taintFindings, flows := analyzeTaintTree(tree, opts.SourceDirs, opts)
			findings = append(findings, taintFindings...)
			r.Flows = flows
		}
		analyzer.SortFindings(findings)
	}
	for _, f := range findings {
		r.Findings = append(r.Findings, RankedFinding{Finding: f})
	}
	if iface != nil {
		if warnings, err := iface.Validate(); err == nil {
			r.Warnings = append(r.Warnings, warnings...)
		}
	}
	return r
}

// Hybrid joins the static findings with a recorded trace: findings are
// re-ranked by observed call counts, findings on never-executed calls are
// listed as static-only, and calls the trace observed that the interface
// does not declare are listed as dynamic-only. The trace must be non-nil;
// a nil interface falls back to the EDL embedded in the trace.
func Hybrid(iface *edl.Interface, trace *events.Trace, opts Options) (*Report, error) {
	return HybridContext(context.Background(), iface, trace, opts)
}

// HybridContext is Hybrid with cooperative cancellation: the trace scan
// stops once ctx is done and the call returns ctx.Err() with a nil
// report. An uncancelled HybridContext produces exactly Hybrid's report.
func HybridContext(ctx context.Context, iface *edl.Interface, trace *events.Trace, opts Options) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if trace == nil {
		return nil, fmt.Errorf("staticlint: %w", analyzer.ErrNoTrace)
	}
	if iface == nil {
		iface = analyzer.NewTraceSource(trace).Interface()
		if iface == nil {
			return nil, fmt.Errorf("staticlint: no interface given and no EDL embedded in the trace")
		}
	}
	r := Static(iface, opts)
	r.Source = SourceHybrid
	if trace.Meta.Len() > 0 {
		r.Workload = trace.Meta.At(0).Workload
	}

	counts := make(map[string]int)
	kinds := make(map[string]events.CallKind)
	scan := func(_ int, e events.CallEvent) bool {
		counts[e.Name]++
		kinds[e.Name] = e.Kind
		return ctx.Err() == nil
	}
	trace.Ecalls.Scan(scan)
	trace.Ocalls.Scan(scan)
	// Switchless-served executions never reach the call tables (the worker
	// pool bypasses the interposable paths), so the synthetic events are
	// the only evidence they ran; fold them in so the re-rank sees them.
	// Fallback records are excluded — those calls took the regular path and
	// are already counted above.
	trace.Switchless.Scan(func(_ int, e events.SwitchlessEvent) bool {
		if !e.Fallback {
			counts[e.Name]++
			kinds[e.Name] = e.Kind
		}
		return true
	})

	// Join: every finding learns its observed count and hybrid score.
	// Interface-wide findings (Call = "(interface)") and group findings
	// keep their static score but are weighted by the whole trace.
	total := 0
	for _, n := range counts {
		total += n
	}
	for i := range r.Findings {
		f := &r.Findings[i]
		if f.Call == interfaceWide {
			f.Observed = total
		} else {
			f.Observed = counts[f.Call]
		}
		f.HybridScore = f.Score * math.Log2(1+float64(f.Observed))
		if f.Observed == 0 {
			r.StaticOnly = append(r.StaticOnly, f.Call)
		}
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.HybridScore != b.HybridScore {
			return a.HybridScore > b.HybridScore
		}
		if a.Observed != b.Observed {
			return a.Observed > b.Observed
		}
		if a.Problem != b.Problem {
			return a.Problem < b.Problem
		}
		return a.Call < b.Call
	})
	r.StaticOnly = dedupe(r.StaticOnly)

	// Dynamic-only: observed names the interface does not declare.
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := iface.Lookup(n); ok {
			continue
		}
		d := DynamicOnly{Name: n, Kind: kinds[n], Count: counts[n]}
		if sdk.IsSyncOcall(n) {
			d.Note = "SDK sync ocall, added to every interface at enclave creation"
		}
		r.DynamicOnly = append(r.DynamicOnly, d)
	}
	// Predicted vs observed: the static per-entry transition estimates
	// against what the trace actually recorded (§6's validation loop).
	joinPredictions(r.Predicted, trace)
	// Secret flows learn their observed crossing traffic the same way:
	// a flow whose call never executed is static-only evidence, one that
	// crossed often is live disclosure and ranks first.
	for i := range r.Flows {
		r.Flows[i].Observed = counts[r.Flows[i].Call]
	}
	sort.SliceStable(r.Flows, func(i, j int) bool {
		a, b := r.Flows[i], r.Flows[j]
		if a.Observed != b.Observed {
			return a.Observed > b.Observed
		}
		return a.Pos < b.Pos
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// interfaceWide is the Call name of findings about the whole interface.
const interfaceWide = "(interface)"

func dedupe(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || in[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
