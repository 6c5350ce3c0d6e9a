package apiv1

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// sampleReport exercises every wire field at least once.
func sampleReport() *Report {
	return &Report{
		SchemaVersion: Version,
		Workload:      "sample",
		Stats: []CallStats{{
			Name: "ecall_put", Kind: "ecall", Count: 3,
			MeanNs: 1500, MedianNs: 1400, StdNs: 120, P90Ns: 1700,
			P95Ns: 1750, P99Ns: 1790, MinNs: 1300, MaxNs: 1800,
			FracBelow1us: 0.0, FracBelow5us: 1.0, FracBelow10us: 1.0,
			TotalAEX: 2,
		}},
		Findings: []Finding{{
			Problem: "Short Identical Successive Calls", Call: "ecall_put",
			Kind: "ecall", Partner: "ecall_put",
			Evidence:  "3 successive executions",
			Solutions: []string{"batch calls", "move caller in/out of enclave"},
			Score:     0.75,
		}},
		Security: []SecurityHint{{
			Kind: "make ecall private", Call: "ecall_put",
			Names: []string{"ocall_log"}, Text: "only issued during ocalls",
		}},
		Paging: PagingStats{
			PageIns: 4, PageOuts: 2, DuringCalls: 1,
			ByRegion: map[string]int{"heap": 6},
		},
		WakeGraph: []WakeEdge{{From: 1, To: 2, Count: 5}},
		Switchless: SwitchlessStats{
			Served: 10, Fallbacks: 1,
			Calls: []SwitchlessCall{{
				Name: "ocall_write", Kind: "ocall",
				Served: 10, Fallbacks: 1, AvgWaitNs: 900,
			}},
		},
		Graph: &CallGraph{
			Nodes: []GraphNode{{Name: "ecall_put", Kind: "ecall", CallID: 1, Count: 3}},
			Edges: []GraphEdge{{From: "ecall_put", To: "ocall_log", Count: 2, Indirect: true}},
		},
	}
}

func sampleSnapshot() *LiveSnapshot {
	return &LiveSnapshot{
		SchemaVersion: Version,
		Workload:      "sample",
		Seq:           7,
		Counts:        Counts{Ecalls: 3, Ocalls: 2, Syncs: 1, AEXs: 2, Paging: 6, Switchless: 11},
		Rates:         Rates{WindowNs: int64(time.Second), EcallsPerSec: 1200.5, OcallsPerSec: 800, AEXsPerSec: 3.25, PagingPerSec: 0.5},
		Stats:         sampleReport().Stats,
		Findings:      sampleReport().Findings,
		Paging:        sampleReport().Paging,
		WakeGraph:     sampleReport().WakeGraph,
		Switchless:    sampleReport().Switchless,
	}
}

func sampleLintReport() *LintReport {
	return &LintReport{
		SchemaVersion: Version,
		Workload:      "sample",
		Source:        "hybrid",
		Summary: LintSummary{
			Ecalls: 4, PublicEcalls: 3, PrivateEcalls: 1,
			Ocalls: 2, AllowEdges: 1, UserCheckParams: 1,
		},
		Findings: []LintFinding{{
			Finding: Finding{
				Problem: "Transition-Bound Calls", Call: "ecall_ping", Kind: "ecall",
				Evidence:  "marshals 0 bytes",
				Solutions: []string{"use switchless calls"},
				Score:     0.9,
			},
			Observed:    120,
			HybridScore: 6.22,
		}},
		StaticOnly:  []string{"ecall_unused"},
		DynamicOnly: []DynamicOnly{{Name: "ocall_debug", Kind: "ocall", Count: 3, Note: "not declared"}},
		Warnings:    []string{"ocall_debug: undeclared"},
	}
}

// TestRoundTrip proves every top-level document survives
// marshal → unmarshal unchanged, so the wire types carry no state the
// encoding loses.
func TestRoundTrip(t *testing.T) {
	docs := map[string]any{
		"report":   sampleReport(),
		"snapshot": sampleSnapshot(),
		"lint":     sampleLintReport(),
		"trace_info": &TraceInfo{
			SchemaVersion: Version, ID: "t1", Workload: "sample",
			ContentKey: "deadbeef", Counts: Counts{Ecalls: 3}, Seq: 2,
		},
		"stats_report": &StatsReport{
			SchemaVersion: Version, Workload: "sample", ContentKey: "deadbeef",
			Stats: sampleReport().Stats, WindowsTotal: 3, WindowsComputed: 1, WindowsReused: 2,
		},
		"metrics": &ServerMetrics{
			SchemaVersion: Version, Traces: 2,
			Cache: CacheMetrics{Hits: 5, Misses: 2, Coalesced: 1, Entries: 2, Bytes: 4096, Evictions: 0},
			Memory: MemoryMetrics{
				HeapAllocBytes: 1 << 20, HeapSysBytes: 4 << 20,
				PeakHeapAllocBytes: 2 << 20, NumGC: 3,
			},
			Requests: 9,
		},
		"error": &Error{SchemaVersion: Version, Status: 404, Error: "no such trace"},
	}
	for name, doc := range docs {
		raw, err := Marshal(doc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back := reflect.New(reflect.TypeOf(doc).Elem()).Interface()
		if err := json.Unmarshal(raw, back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(doc, back) {
			t.Errorf("%s changed across the round-trip:\n want %+v\n got  %+v", name, doc, back)
		}
	}
}

// TestMarshalCanonical pins the canonical serialisation shape: indented,
// newline-terminated, schema-stamped.
func TestMarshalCanonical(t *testing.T) {
	raw, err := Marshal(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if !strings.HasSuffix(s, "}\n") {
		t.Errorf("canonical marshal must end with }\\n, got %q", s[len(s)-4:])
	}
	if !strings.Contains(s, "\n  \"schema_version\": 1,\n") {
		t.Errorf("document is not schema-stamped:\n%s", s)
	}
}

// TestGoldenWire pins the exact bytes of each document class. Any diff
// here is a wire-schema change and needs a deliberate decision: additive
// changes regenerate the goldens, breaking changes need api/v2.
func TestGoldenWire(t *testing.T) {
	docs := []struct {
		name string
		doc  any
	}{
		{"report.json", sampleReport()},
		{"snapshot.json", sampleSnapshot()},
		{"lint.json", sampleLintReport()},
	}
	for _, d := range docs {
		raw, err := Marshal(d.doc)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		path := filepath.Join("testdata", d.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if string(want) != string(raw) {
			t.Errorf("%s drifted from golden.\n--- want\n%s\n--- got\n%s", d.name, want, raw)
		}
	}
}

// TestFromReport spot-checks the internal→wire conversion: enums become
// their catalogue strings and durations become integer nanoseconds.
func TestFromReport(t *testing.T) {
	in := &analyzer.Report{
		Workload: "conv",
		Stats: []analyzer.CallStats{{
			Name: "ecall_x", Kind: events.KindEcall, Count: 2,
			Mean: 3 * time.Microsecond, Median: 2 * time.Microsecond,
			Min: time.Microsecond, Max: 5 * time.Microsecond,
			FracBelow5us: 0.5, TotalAEX: 1,
		}},
		Findings: []analyzer.Finding{{
			Problem: analyzer.ProblemSISC, Call: "ecall_x", Kind: events.KindEcall,
			Evidence:  "e",
			Solutions: []analyzer.Solution{analyzer.SolutionBatch},
			Score:     1,
		}},
		Paging:     analyzer.PagingStats{PageIns: 1, ByRegion: map[string]int{"heap": 1}},
		WakeGraph:  []analyzer.WakeEdge{{From: 1, To: 2, Count: 3}},
		Switchless: analyzer.SwitchlessStats{Served: 1},
	}
	got := FromReport(in)
	if got.SchemaVersion != Version {
		t.Errorf("schema version = %d, want %d", got.SchemaVersion, Version)
	}
	if got.Stats[0].Kind != "ecall" || got.Stats[0].MeanNs != 3000 {
		t.Errorf("stats conversion wrong: %+v", got.Stats[0])
	}
	if got.Findings[0].Problem != "Short Identical Successive Calls" {
		t.Errorf("problem string = %q", got.Findings[0].Problem)
	}
	if got.Findings[0].Solutions[0] != "batch calls" {
		t.Errorf("solution string = %q", got.Findings[0].Solutions[0])
	}
	// The wire paging map is a copy, not an alias.
	got.Paging.ByRegion["heap"] = 99
	if in.Paging.ByRegion["heap"] != 1 {
		t.Error("FromReport aliased the paging map")
	}
}

// TestCheckVersion exercises the version guard.
func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(Version); err != nil {
		t.Errorf("CheckVersion(%d) = %v", Version, err)
	}
	if err := CheckVersion(Version + 1); err == nil {
		t.Error("CheckVersion accepted a foreign version")
	}
}
