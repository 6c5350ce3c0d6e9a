package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgxperf"
	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/workloads/amplify"
	"sgxperf/internal/workloads/contend"
	"sgxperf/internal/workloads/leaky"
)

// Regenerate the golden files after an intentional output change with
//
//	go test ./cmd/sgx-perf-lint -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenReports pins the exact text and api/v1 JSON reports
// sgx-perf-lint produces for the bundled workload interfaces. The static
// pass is fully deterministic — same interface, same cost model, same
// findings in the same order — so any diff here is a real behaviour
// change.
func TestGoldenReports(t *testing.T) {
	for name, build := range bundledInterfaces {
		iface, err := build()
		if err != nil {
			t.Fatalf("%s interface: %v", name, err)
		}
		report := sgxperf.StaticLint(iface, sgxperf.LintOptions{})

		text := report.Render()
		compareGolden(t, name+".txt", []byte(text))

		wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
		if err != nil {
			t.Fatalf("%s api json: %v", name, err)
		}
		compareGolden(t, name+".api.json", wire)
	}
}

// TestGoldenSwitchlessConfig pins the machine-readable switchless
// configuration `-switchless-config` emits for the bundled SecureKeeper
// interface, and proves it survives the JSON round-trip the
// lint → config → re-measure hand-off depends on.
func TestGoldenSwitchlessConfig(t *testing.T) {
	iface, err := bundledInterfaces["securekeeper"]()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sgxperf.SwitchlessConfigFrom(iface)
	if cfg == nil {
		t.Fatal("SecureKeeper is transition-bound; expected a switchless configuration")
	}
	if cfg.Source != "staticlint" {
		t.Fatalf("config source = %q, want staticlint", cfg.Source)
	}
	raw, err := cfg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "securekeeper_switchless.json", raw)

	parsed, err := sgxperf.ParseSwitchlessConfig(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, cfg) {
		t.Fatalf("config changed across the JSON round-trip:\n emitted %+v\n parsed  %+v", cfg, parsed)
	}
}

// sourceOpts point the concurrency dataflow pass at the repository root
// (two levels up from this command) scoped to the contend exhibit, the
// configuration `sgx-perf-lint -workload contend -source ../..
// -source-dirs internal/workloads/contend` uses.
var sourceOpts = sgxperf.LintOptions{
	SourceRoot: "../..",
	SourceDirs: []string{"internal/workloads/contend"},
}

// TestGoldenSourceReport pins the static report when the source pass
// joins in: the contend workload's boundary-sync finding (its update
// ecall holds the counter mutex across the audit ocall) merges with the
// interface findings.
func TestGoldenSourceReport(t *testing.T) {
	iface, err := contend.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report := sgxperf.StaticLint(iface, sourceOpts)
	if len(report.Warnings) != 0 {
		t.Fatalf("source pass warned: %v", report.Warnings)
	}
	compareGolden(t, "contend_source.txt", []byte(report.Render()))
	wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "contend_source.api.json", wire)
}

// TestGoldenHybridReport records one single-threaded contend run (fully
// deterministic in virtual time: no lock contention, so no scheduling-
// dependent sync ocalls) and pins the hybrid report: the boundary-sync
// finding joined with the observed audit-ocall count and re-ranked.
func TestGoldenHybridReport(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "contend"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("main")
	w, err := contend.New(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(contend.RunOptions{Threads: 1, OpsPerThread: 40}); err != nil {
		t.Fatal(err)
	}
	iface, err := contend.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report, err := sgxperf.HybridLint(iface, l.Trace(), sourceOpts)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "contend_hybrid.txt", []byte(report.Render()))
	wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "contend_hybrid.api.json", wire)
}

// amplifyOpts scope the source pass to the amplify exhibit, the
// configuration `sgx-perf-lint -workload amplify -source ../..
// -source-dirs internal/workloads/amplify` uses.
var amplifyOpts = sgxperf.LintOptions{
	SourceRoot: "../..",
	SourceDirs: []string{"internal/workloads/amplify"},
}

// TestGoldenAmplifySourceReport pins the static report for the
// chatty-boundary exhibit: the interprocedural pass contributes a
// Loop-Amplified Transitions finding (8 put-chunk ocalls per flush),
// two Boundary Data Hazards (the Len double fetch and the table pointer
// escape), and the per-entry transition predictions.
func TestGoldenAmplifySourceReport(t *testing.T) {
	iface, err := amplify.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report := sgxperf.StaticLint(iface, amplifyOpts)
	// The exhibit deliberately declares its table parameter user_check,
	// so exactly that EDL warning — and nothing from the source pass —
	// is expected.
	if len(report.Warnings) != 1 || !strings.Contains(report.Warnings[0], "user_check") {
		t.Fatalf("source pass warned: %v", report.Warnings)
	}
	if !report.HasProblem(sgxperf.ProblemTransitionAmplification) {
		t.Error("expected a Loop-Amplified Transitions finding")
	}
	if !report.HasProblem(sgxperf.ProblemBoundaryDataHazard) {
		t.Error("expected Boundary Data Hazard findings")
	}
	compareGolden(t, "amplify_source.txt", []byte(report.Render()))
	wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "amplify_source.api.json", wire)
}

// TestGoldenAmplifyHybridReport records one single-threaded amplify run
// (fully deterministic in virtual time) and pins the hybrid report with
// its predicted-vs-observed section: flush's 8-ocall prediction agrees
// with the trace exactly, the two single-dispatch handlers agree, and
// the branch-guarded spill — predicted 1, never executed under the
// default run — is flagged as over-predicted.
func TestGoldenAmplifyHybridReport(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "amplify"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("main")
	w, err := amplify.New(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(amplify.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	iface, err := amplify.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report, err := sgxperf.HybridLint(iface, l.Trace(), amplifyOpts)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[string]string)
	for _, p := range report.Predicted {
		verdicts[p.Ecall] = p.Verdict
	}
	want := map[string]string{
		amplify.EcallFlush:        "agree",
		amplify.EcallCheckedWrite: "agree",
		amplify.EcallShare:        "agree",
		amplify.EcallMaybe:        "over-predicted",
	}
	if !reflect.DeepEqual(verdicts, want) {
		t.Errorf("prediction verdicts = %v, want %v", verdicts, want)
	}
	compareGolden(t, "amplify_hybrid.txt", []byte(report.Render()))
	wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "amplify_hybrid.api.json", wire)
}

// leakyOpts scope the source pass to the leaky exhibit, the
// configuration `sgx-perf-lint -workload leaky -source ../..
// -source-dirs internal/workloads/leaky` uses.
var leakyOpts = sgxperf.LintOptions{
	SourceRoot: "../..",
	SourceDirs: []string{"internal/workloads/leaky"},
}

// TestGoldenLeakySourceReport pins the static report for the
// secret-flow exhibit: the taint pass contributes the unsealed
// master-key flow (with its source→sink witness chain) and the three
// direction mismatches, while the sealed backup flow stays silent —
// no flow in the report may mention the sealed stash ocall.
func TestGoldenLeakySourceReport(t *testing.T) {
	iface, err := leaky.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report := sgxperf.StaticLint(iface, leakyOpts)
	// The exhibit deliberately declares its scatter buffer user_check,
	// so exactly that EDL warning — and nothing from the source pass —
	// is expected.
	if len(report.Warnings) != 1 || !strings.Contains(report.Warnings[0], "user_check") {
		t.Fatalf("source pass warned: %v", report.Warnings)
	}
	if !report.HasProblem(sgxperf.ProblemSecretLeak) {
		t.Error("expected a Secret Data Crossing Boundary finding")
	}
	if !report.HasProblem(sgxperf.ProblemDirectionMismatch) {
		t.Error("expected Boundary Direction Mismatch findings")
	}
	if len(report.Flows) != 1 {
		t.Errorf("flows = %d, want exactly 1 (the sealed backup flow must stay silent)", len(report.Flows))
	}
	for _, fl := range report.Flows {
		if fl.Call == leaky.OcallSealed {
			t.Errorf("sealed flow %s → %s reported; sealBlob must sanitize it", fl.Source, fl.Sink)
		}
	}
	compareGolden(t, "leaky_source.txt", []byte(report.Render()))
	wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "leaky_source.api.json", wire)
}

// TestGoldenLeakyHybridReport records one single-threaded leaky run
// (fully deterministic in virtual time) and pins the hybrid report:
// the unsealed master-key flow is joined with the observed stash-ocall
// count (the default run exports it three times) and ranked above any
// never-executed flow.
func TestGoldenLeakyHybridReport(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "leaky"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("main")
	w, err := leaky.New(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(leaky.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	iface, err := leaky.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report, err := sgxperf.HybridLint(iface, l.Trace(), leakyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Flows) != 1 {
		t.Fatalf("flows = %d, want exactly 1", len(report.Flows))
	}
	if got := report.Flows[0].Observed; got != 3 {
		t.Errorf("unsealed flow observed %d crossings, want 3 (the default run's export count)", got)
	}
	compareGolden(t, "leaky_hybrid.txt", []byte(report.Render()))
	wire, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "leaky_hybrid.api.json", wire)
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s drifted from golden file.\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}
