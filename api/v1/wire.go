// Package apiv1 is the versioned JSON wire schema shared by every
// sgx-perf surface that speaks JSON: the sgx-perf-serve daemon, the
// -json modes of sgx-perf-analyze, sgx-perf-lint and sgx-perf-bench,
// and any external tooling that consumes their output.
//
// The schema is deliberately decoupled from the internal Go types.
// Internal packages are free to rename fields, renumber enum constants
// or restructure aggregates; the wire types here keep stable snake_case
// field names, carry enums as strings, express every duration as
// integer nanoseconds in a field suffixed _ns, and stamp each top-level
// document with "schema_version". Breaking changes require a new
// api/v2 package and a bumped version stamp; additive changes (new
// optional fields) are allowed within v1.
//
// Marshal is the canonical serialisation — two-space indented with a
// trailing newline — used identically by the server and the CLIs so
// that equal documents are equal byte-for-byte.
package apiv1

import (
	"encoding/json"
	"fmt"
)

// Version is the wire-schema generation stamped into every top-level
// document as "schema_version".
const Version = 1

// Marshal is the canonical JSON serialisation of a wire document:
// two-space indentation and a trailing newline. The server's responses
// and the CLIs' -json output all go through here, which is what makes
// the serve smoke test's byte-equality check meaningful.
func Marshal(v any) ([]byte, error) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// MarshalCompact is the one-line serialisation used where a document
// must not contain newlines (SSE data frames). The document is the
// same; only the whitespace differs.
func MarshalCompact(v any) ([]byte, error) {
	return json.Marshal(v)
}

// Report is the analyser's full output for one trace (the wire form of
// the internal analyzer.Report).
type Report struct {
	SchemaVersion int             `json:"schema_version"`
	Workload      string          `json:"workload"`
	Stats         []CallStats     `json:"stats"`
	Findings      []Finding       `json:"findings"`
	Security      []SecurityHint  `json:"security,omitempty"`
	Paging        PagingStats     `json:"paging"`
	WakeGraph     []WakeEdge      `json:"wake_graph,omitempty"`
	Switchless    SwitchlessStats `json:"switchless"`
	Graph         *CallGraph      `json:"graph,omitempty"`
}

// CallStats are the per-call general statistics (§4.3.1); ecall
// durations are transition-adjusted as in §4.1.2.
type CallStats struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "ecall" or "ocall"
	Count int    `json:"count"`

	MeanNs   int64 `json:"mean_ns"`
	MedianNs int64 `json:"median_ns"`
	StdNs    int64 `json:"std_ns"`
	P90Ns    int64 `json:"p90_ns"`
	P95Ns    int64 `json:"p95_ns"`
	P99Ns    int64 `json:"p99_ns"`
	MinNs    int64 `json:"min_ns"`
	MaxNs    int64 `json:"max_ns"`

	FracBelow1us  float64 `json:"frac_below_1us"`
	FracBelow5us  float64 `json:"frac_below_5us"`
	FracBelow10us float64 `json:"frac_below_10us"`

	TotalAEX int `json:"total_aex"`
}

// Finding is one detected problem with evidence and ranked solutions.
// Problem and the solutions are carried as their catalogue strings.
type Finding struct {
	Problem      string   `json:"problem"`
	Call         string   `json:"call"`
	Kind         string   `json:"kind"`
	Partner      string   `json:"partner,omitempty"`
	Evidence     string   `json:"evidence"`
	Solutions    []string `json:"solutions,omitempty"`
	SecurityNote string   `json:"security_note,omitempty"`
	Score        float64  `json:"score"`
}

// SecurityHint is one interface-tightening hint (§4.3.3).
type SecurityHint struct {
	Kind  string   `json:"kind"`
	Call  string   `json:"call,omitempty"`
	Names []string `json:"names,omitempty"`
	Text  string   `json:"text"`
}

// PagingStats aggregates the EPC paging events (§4.1.5).
type PagingStats struct {
	PageIns     int            `json:"page_ins"`
	PageOuts    int            `json:"page_outs"`
	DuringCalls int            `json:"during_calls"`
	ByRegion    map[string]int `json:"by_region,omitempty"`
}

// WakeEdge is one thread-wakes-thread edge of the wake graph (§5.2.4).
type WakeEdge struct {
	From  int64 `json:"from"`
	To    int64 `json:"to"`
	Count int   `json:"count"`
}

// SwitchlessCall is the per-name switchless runtime summary.
type SwitchlessCall struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Served    int    `json:"served"`
	Fallbacks int    `json:"fallbacks"`
	AvgWaitNs int64  `json:"avg_wait_ns"`
}

// SwitchlessStats summarises the switchless runtime's activity.
type SwitchlessStats struct {
	Served    int              `json:"served"`
	Fallbacks int              `json:"fallbacks"`
	Calls     []SwitchlessCall `json:"calls,omitempty"`
}

// GraphNode is one call in the call-pattern graph.
type GraphNode struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	CallID int    `json:"call_id"`
	Count  int    `json:"count"`
}

// GraphEdge links a parent call to a call issued under it; indirect
// edges are the dashed arrows of Fig. 5.
type GraphEdge struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Count    int    `json:"count"`
	Indirect bool   `json:"indirect,omitempty"`
}

// CallGraph is the application's call-pattern graph (§4.3.1).
type CallGraph struct {
	Nodes []GraphNode `json:"nodes"`
	Edges []GraphEdge `json:"edges"`
}

// Counts are raw per-table event totals.
type Counts struct {
	Ecalls     int `json:"ecalls"`
	Ocalls     int `json:"ocalls"`
	Syncs      int `json:"syncs"`
	AEXs       int `json:"aexs"`
	Paging     int `json:"paging"`
	Switchless int `json:"switchless"`
}

// Rates are sliding-window event rates in events per second of virtual
// time.
type Rates struct {
	WindowNs     int64   `json:"window_ns"`
	EcallsPerSec float64 `json:"ecalls_per_sec"`
	OcallsPerSec float64 `json:"ocalls_per_sec"`
	AEXsPerSec   float64 `json:"aexs_per_sec"`
	PagingPerSec float64 `json:"paging_per_sec"`
}

// LiveSnapshot is one consistent view of a live or served analysis:
// totals and rates for dashboards plus the analyser-grade statistics.
// Seq is a per-trace monotonic change counter; subscribers resume a
// long-poll with ?seq=<last seen> and the server answers once the
// trace has moved past it.
type LiveSnapshot struct {
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload"`
	Seq           uint64 `json:"seq,omitempty"`
	Counts        Counts `json:"counts"`
	Rates         Rates  `json:"rates"`

	Stats      []CallStats     `json:"stats"`
	Findings   []Finding       `json:"findings"`
	Paging     PagingStats     `json:"paging_summary"`
	WakeGraph  []WakeEdge      `json:"wake_graph,omitempty"`
	Switchless SwitchlessStats `json:"switchless"`
}

// LintSummary condenses the interface shape the static detectors saw.
type LintSummary struct {
	Ecalls          int `json:"ecalls"`
	PublicEcalls    int `json:"public_ecalls"`
	PrivateEcalls   int `json:"private_ecalls"`
	Ocalls          int `json:"ocalls"`
	AllowEdges      int `json:"allow_edges"`
	UserCheckParams int `json:"user_check_params"`
}

// LintFinding is a Finding augmented with the hybrid join: how often
// the trace observed the call and the traffic-weighted rank.
type LintFinding struct {
	Finding
	Observed    int     `json:"observed,omitempty"`
	HybridScore float64 `json:"hybrid_score,omitempty"`
}

// DynamicOnly names a call the trace observed that the interface does
// not declare.
type DynamicOnly struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Count int    `json:"count"`
	Note  string `json:"note,omitempty"`
}

// EntryPrediction is the interprocedural transition estimate for one
// ecall entry point: expected ocall dispatches per invocation, joined
// in hybrid reports with what the trace recorded.
type EntryPrediction struct {
	Ecall     string `json:"ecall"`
	Handler   string `json:"handler"`
	Predicted int    `json:"predicted"`
	// LoopUnknown marks a lower bound (a loop trip count the analysis
	// could not resolve); Conditional marks branch-guarded dispatches.
	LoopUnknown bool `json:"loop_unknown,omitempty"`
	Conditional bool `json:"conditional,omitempty"`
	// Observed is the mean non-sync ocall dispatches per recorded
	// invocation; Verdict is "agree", "over-predicted",
	// "under-predicted", "loop-unknown" or "not-executed" (hybrid only).
	Observed    float64 `json:"observed,omitempty"`
	Invocations int     `json:"invocations,omitempty"`
	Verdict     string  `json:"verdict,omitempty"`
}

// A FlowStep is one hop of a secret-flow witness chain.
type FlowStep struct {
	Pos  string `json:"pos"`
	Note string `json:"note"`
}

// LintFlow is one secret-flow witness of the taint analysis: an
// enclave-confidential value reaching a boundary sink without sealing,
// with the full source→…→sink path.
type LintFlow struct {
	Source string `json:"source"`
	Sink   string `json:"sink"`
	// SinkKind is "ocall-arg", "out-param", "user_check" or
	// "boundary-write".
	SinkKind string `json:"sink_kind"`
	// Call is the joinable wire name — the ocall for argument sinks,
	// the enclosing handler's ecall for buffer-write sinks.
	Call string `json:"call,omitempty"`
	Func string `json:"func"`
	Pos  string `json:"pos"`
	// Bytes is the static size of the leaked value (0 when runtime
	// sized); Price the modelled copy cost of one crossing.
	Bytes int    `json:"bytes,omitempty"`
	Price string `json:"price,omitempty"`
	// Observed is how often Call executed in the joined trace (hybrid
	// reports only).
	Observed int        `json:"observed,omitempty"`
	Chain    []FlowStep `json:"chain"`
}

// LintReport is the static interface analysis, optionally joined with a
// recorded trace ("hybrid").
type LintReport struct {
	SchemaVersion int           `json:"schema_version"`
	Workload      string        `json:"workload,omitempty"`
	Source        string        `json:"source"` // "static" or "hybrid"
	Summary       LintSummary   `json:"summary"`
	Findings      []LintFinding `json:"findings"`
	StaticOnly    []string      `json:"static_only,omitempty"`
	DynamicOnly   []DynamicOnly `json:"dynamic_only,omitempty"`
	// Predicted holds the per-entry transition estimates of
	// source-aware reports.
	Predicted []EntryPrediction `json:"predicted,omitempty"`
	// Flows holds the secret-flow witnesses of the taint analysis
	// (source-aware reports).
	Flows    []LintFlow `json:"flows,omitempty"`
	Warnings []string   `json:"warnings,omitempty"`
}

// VetDiagnostic is one repository-lint finding from the sgx-perf-vet
// analyzer suite.
type VetDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// VetReport is the output of sgx-perf-vet -json: every diagnostic the
// repository's own analyzer suite produced.
type VetReport struct {
	SchemaVersion int             `json:"schema_version"`
	Root          string          `json:"root"`
	Analyzers     []string        `json:"analyzers"`
	Diagnostics   []VetDiagnostic `json:"diagnostics"`
}

// TraceInfo describes one trace registered with the serve daemon.
type TraceInfo struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Workload      string `json:"workload,omitempty"`
	// ContentKey is the content-addressed identity of the trace: a hash
	// chain over every table's chunk hashes. It changes whenever events
	// are appended and keys the server's artifact cache.
	ContentKey string `json:"content_key"`
	Counts     Counts `json:"counts"`
	// Seq is the trace's change counter (bumped on upload and append).
	Seq uint64 `json:"seq"`
}

// TraceList is the response of GET /v1/traces.
type TraceList struct {
	SchemaVersion int         `json:"schema_version"`
	Traces        []TraceInfo `json:"traces"`
}

// StatsReport is the statistics view (GET /v1/traces/{id}/stats): the
// Stats of the trace's cached report and the content key it is cached
// under.
type StatsReport struct {
	SchemaVersion int         `json:"schema_version"`
	Workload      string      `json:"workload"`
	ContentKey    string      `json:"content_key"`
	Stats         []CallStats `json:"stats"`
	// WindowsTotal, WindowsComputed and WindowsReused are always 0: the
	// daemon folds each report in one pass, with no fold windows to
	// count. They stay because removing a field is a breaking change,
	// which needs api/v2 (see the package doc).
	WindowsTotal    int `json:"windows_total"`
	WindowsComputed int `json:"windows_computed"`
	WindowsReused   int `json:"windows_reused"`
}

// CacheMetrics are the artifact cache's counters. Bytes is the
// estimated resident size of every cached artifact, accounted at insert
// and eviction time.
type CacheMetrics struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Entries   int    `json:"entries"`
	Bytes     uint64 `json:"bytes"`
	Evictions uint64 `json:"evictions"`
}

// MemoryMetrics is the server's memory gauge set: a runtime.MemStats
// snapshot plus the peak live heap the server has observed across its
// analysis work, so the streaming fold's bounded-memory claim is
// observable in production rather than only in the bench.
type MemoryMetrics struct {
	HeapAllocBytes     uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes       uint64 `json:"heap_sys_bytes"`
	PeakHeapAllocBytes uint64 `json:"peak_heap_alloc_bytes"`
	NumGC              uint32 `json:"num_gc"`
}

// ServerMetrics is the response of GET /v1/metrics.
type ServerMetrics struct {
	SchemaVersion int           `json:"schema_version"`
	Traces        int           `json:"traces"`
	Cache         CacheMetrics  `json:"cache"`
	Memory        MemoryMetrics `json:"memory"`
	Requests      uint64        `json:"requests"`
}

// Error is the JSON error body every non-2xx serve response carries.
type Error struct {
	SchemaVersion int    `json:"schema_version"`
	Status        int    `json:"status"`
	Error         string `json:"error"`
}

// CheckVersion validates a document's schema_version stamp, for clients
// that want to fail fast on foreign documents.
func CheckVersion(got int) error {
	if got != Version {
		return fmt.Errorf("apiv1: schema_version %d, want %d", got, Version)
	}
	return nil
}
