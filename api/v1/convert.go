package apiv1

import (
	"path/filepath"

	"sgxperf/internal/lint"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/live"
	"sgxperf/internal/perf/staticlint"
)

// FromReport converts an analyser report to its wire form.
func FromReport(r *analyzer.Report) *Report {
	if r == nil {
		return nil
	}
	out := &Report{
		SchemaVersion: Version,
		Workload:      r.Workload,
		Stats:         FromStats(r.Stats),
		Findings:      fromFindings(r.Findings),
		Paging:        fromPaging(r.Paging),
		WakeGraph:     fromWakeGraph(r.WakeGraph),
		Switchless:    fromSwitchless(r.Switchless),
		Graph:         fromGraph(r.Graph),
	}
	for _, h := range r.Security {
		out.Security = append(out.Security, SecurityHint{
			Kind: h.Kind.String(), Call: h.Call, Names: h.Names, Text: h.Text,
		})
	}
	return out
}

// FromSnapshot converts a live collector snapshot to its wire form. Seq
// is zero; the serve daemon stamps its own change counter.
func FromSnapshot(s *live.Snapshot) *LiveSnapshot {
	if s == nil {
		return nil
	}
	return &LiveSnapshot{
		SchemaVersion: Version,
		Workload:      s.Workload,
		Counts: Counts{
			Ecalls: s.Counts.Ecalls, Ocalls: s.Counts.Ocalls,
			Syncs: s.Counts.Syncs, AEXs: s.Counts.AEXs,
			Paging: s.Counts.Paging, Switchless: s.Counts.Switchless,
		},
		Rates: Rates{
			WindowNs:     int64(s.Rates.Window),
			EcallsPerSec: s.Rates.Ecalls,
			OcallsPerSec: s.Rates.Ocalls,
			AEXsPerSec:   s.Rates.AEXs,
			PagingPerSec: s.Rates.Paging,
		},
		Stats:      FromStats(s.Stats),
		Findings:   fromFindings(s.Findings),
		Paging:     fromPaging(s.Paging),
		WakeGraph:  fromWakeGraph(s.WakeGraph),
		Switchless: fromSwitchless(s.Switchless),
	}
}

// FromLintReport converts a static/hybrid lint report to its wire form.
func FromLintReport(r *staticlint.Report) *LintReport {
	if r == nil {
		return nil
	}
	out := &LintReport{
		SchemaVersion: Version,
		Workload:      r.Workload,
		Source:        r.Source.String(),
		Summary: LintSummary{
			Ecalls:          r.Summary.Ecalls,
			PublicEcalls:    r.Summary.PublicEcalls,
			PrivateEcalls:   r.Summary.PrivateEcalls,
			Ocalls:          r.Summary.Ocalls,
			AllowEdges:      r.Summary.AllowEdges,
			UserCheckParams: r.Summary.UserCheckParams,
		},
		Findings:   make([]LintFinding, 0, len(r.Findings)),
		StaticOnly: r.StaticOnly,
		Warnings:   r.Warnings,
	}
	for _, f := range r.Findings {
		out.Findings = append(out.Findings, LintFinding{
			Finding:     fromFinding(f.Finding),
			Observed:    f.Observed,
			HybridScore: f.HybridScore,
		})
	}
	for _, d := range r.DynamicOnly {
		out.DynamicOnly = append(out.DynamicOnly, DynamicOnly{
			Name: d.Name, Kind: d.Kind.String(), Count: d.Count, Note: d.Note,
		})
	}
	for _, p := range r.Predicted {
		out.Predicted = append(out.Predicted, EntryPrediction{
			Ecall: p.Ecall, Handler: p.Handler, Predicted: p.Predicted,
			LoopUnknown: p.LoopUnknown, Conditional: p.Conditional,
			Observed: p.Observed, Invocations: p.Invocations, Verdict: p.Verdict,
		})
	}
	for _, fl := range r.Flows {
		wf := LintFlow{
			Source: fl.Source, Sink: fl.Sink, SinkKind: fl.SinkKind,
			Call: fl.Call, Func: fl.Func, Pos: fl.Pos,
			Bytes: fl.Bytes, Price: fl.Price, Observed: fl.Observed,
			Chain: make([]FlowStep, 0, len(fl.Chain)),
		}
		for _, h := range fl.Chain {
			wf.Chain = append(wf.Chain, FlowStep{Pos: h.Pos, Note: h.Note})
		}
		out.Flows = append(out.Flows, wf)
	}
	return out
}

// FromDiagnostics converts the repository lint suite's diagnostics to
// the sgx-perf-vet wire form.
func FromDiagnostics(root string, analyzers []string, diags []lint.Diagnostic) *VetReport {
	out := &VetReport{
		SchemaVersion: Version,
		Root:          root,
		Analyzers:     analyzers,
		Diagnostics:   make([]VetDiagnostic, 0, len(diags)),
	}
	for _, d := range diags {
		out.Diagnostics = append(out.Diagnostics, VetDiagnostic{
			File:     filepath.ToSlash(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// FromStats converts per-call statistics to their wire form.
func FromStats(in []analyzer.CallStats) []CallStats {
	out := make([]CallStats, len(in))
	for i, s := range in {
		out[i] = CallStats{
			Name:          s.Name,
			Kind:          s.Kind.String(),
			Count:         s.Count,
			MeanNs:        int64(s.Mean),
			MedianNs:      int64(s.Median),
			StdNs:         int64(s.Std),
			P90Ns:         int64(s.P90),
			P95Ns:         int64(s.P95),
			P99Ns:         int64(s.P99),
			MinNs:         int64(s.Min),
			MaxNs:         int64(s.Max),
			FracBelow1us:  s.FracBelow1us,
			FracBelow5us:  s.FracBelow5us,
			FracBelow10us: s.FracBelow10us,
			TotalAEX:      s.TotalAEX,
		}
	}
	return out
}

func fromFinding(f analyzer.Finding) Finding {
	out := Finding{
		Problem:      f.Problem.String(),
		Call:         f.Call,
		Kind:         f.Kind.String(),
		Partner:      f.Partner,
		Evidence:     f.Evidence,
		SecurityNote: f.SecurityNote,
		Score:        f.Score,
	}
	for _, s := range f.Solutions {
		out.Solutions = append(out.Solutions, s.String())
	}
	return out
}

func fromFindings(in []analyzer.Finding) []Finding {
	out := make([]Finding, len(in))
	for i, f := range in {
		out[i] = fromFinding(f)
	}
	return out
}

func fromPaging(p analyzer.PagingStats) PagingStats {
	out := PagingStats{
		PageIns:     p.PageIns,
		PageOuts:    p.PageOuts,
		DuringCalls: p.DuringCalls,
	}
	if len(p.ByRegion) > 0 {
		out.ByRegion = make(map[string]int, len(p.ByRegion))
		for k, v := range p.ByRegion {
			out.ByRegion[k] = v
		}
	}
	return out
}

func fromWakeGraph(in []analyzer.WakeEdge) []WakeEdge {
	if in == nil {
		return nil
	}
	out := make([]WakeEdge, len(in))
	for i, e := range in {
		out[i] = WakeEdge{From: e.From, To: e.To, Count: e.Count}
	}
	return out
}

func fromSwitchless(s analyzer.SwitchlessStats) SwitchlessStats {
	out := SwitchlessStats{Served: s.Served, Fallbacks: s.Fallbacks}
	for _, c := range s.Calls {
		out.Calls = append(out.Calls, SwitchlessCall{
			Name:      c.Name,
			Kind:      c.Kind.String(),
			Served:    c.Served,
			Fallbacks: c.Fallbacks,
			AvgWaitNs: int64(c.AvgWait),
		})
	}
	return out
}

func fromGraph(g *analyzer.CallGraph) *CallGraph {
	if g == nil {
		return nil
	}
	out := &CallGraph{}
	for _, n := range g.Nodes {
		out.Nodes = append(out.Nodes, GraphNode{
			Name: n.Name, Kind: n.Kind.String(), CallID: n.CallID, Count: n.Count,
		})
	}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, GraphEdge{
			From: e.From, To: e.To, Count: e.Count, Indirect: e.Indirect,
		})
	}
	return out
}
