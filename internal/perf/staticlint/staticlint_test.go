package staticlint

import (
	"strings"
	"testing"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sdk"
)

// lintEDL exercises every detector at once: user_check pointers, large
// copies, a reentrancy cycle, an unreachable private ecall, a merge
// group and switchless candidates.
const lintEDL = `
	enclave {
		trusted {
			public ecall_put([in, size=len] buf, len);
			public ecall_get([out, size=len] buf, len);
			public ecall_peek([user_check] p);
			public ecall_handle(fd);
			ecall_resume();
			ecall_orphan();
		};
		untrusted {
			ocall_wait() allow(ecall_resume);
			ocall_tick_a();
			ocall_tick_b();
			ocall_tick_c();
			ocall_raw([user_check] p);
		};
	};
`

func parse(t *testing.T, src string) *edl.Interface {
	t.Helper()
	iface, _, err := edl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

func problems(fs []analyzer.Finding) map[analyzer.Problem]int {
	out := make(map[analyzer.Problem]int)
	for _, f := range fs {
		out[f.Problem]++
	}
	return out
}

func TestAnalyzeFiresEveryDetector(t *testing.T) {
	fs := Analyze(parse(t, lintEDL), Options{})
	got := problems(fs)
	// user_check on ecall_peek and ocall_raw.
	if got[analyzer.ProblemPermissiveInterface] < 3 { // 2 user_check + 1 unreachable
		t.Fatalf("permissive findings = %d, want >= 3:\n%+v", got[analyzer.ProblemPermissiveInterface], fs)
	}
	if got[analyzer.ProblemLargeCopies] != 2 {
		t.Fatalf("copy findings = %d, want 2", got[analyzer.ProblemLargeCopies])
	}
	if got[analyzer.ProblemReentrancy] != 1 {
		t.Fatalf("reentrancy findings = %d, want 1", got[analyzer.ProblemReentrancy])
	}
	if got[analyzer.ProblemTransitionBound] != 1 {
		t.Fatalf("switchless findings = %d, want 1", got[analyzer.ProblemTransitionBound])
	}
	if got[analyzer.ProblemSDSC] < 1 {
		t.Fatalf("merge findings = %d, want >= 1", got[analyzer.ProblemSDSC])
	}
}

func TestAnalyzeNilInterface(t *testing.T) {
	if fs := Analyze(nil, Options{}); fs != nil {
		t.Fatalf("nil interface produced findings: %+v", fs)
	}
}

func TestReentrancyEvidence(t *testing.T) {
	fs := Analyze(parse(t, lintEDL), Options{})
	var re *analyzer.Finding
	for i := range fs {
		if fs[i].Problem == analyzer.ProblemReentrancy {
			re = &fs[i]
		}
	}
	if re == nil {
		t.Fatal("no reentrancy finding")
	}
	if re.Call != "ocall_wait" || re.Partner != "ecall_resume" {
		t.Fatalf("reentrancy finding = %q with %q", re.Call, re.Partner)
	}
	if !strings.Contains(re.Evidence, "ecall_resume") {
		t.Fatalf("evidence does not name the allowed ecall: %s", re.Evidence)
	}
}

func TestUnreachablePrivateEcall(t *testing.T) {
	fs := Analyze(parse(t, lintEDL), Options{})
	found := false
	for _, f := range fs {
		if f.Call == "ecall_orphan" {
			found = true
			if f.Solutions[0] != analyzer.SolutionRemoveDead {
				t.Fatalf("orphan solutions = %v", f.Solutions)
			}
		}
		if f.Call == "ecall_resume" && f.Problem == analyzer.ProblemPermissiveInterface {
			t.Fatal("allowed private ecall flagged as unreachable")
		}
	}
	if !found {
		t.Fatal("unreachable private ecall not flagged")
	}
}

func TestWideSurfaceThreshold(t *testing.T) {
	var b strings.Builder
	b.WriteString("enclave { trusted {")
	for i := 0; i < 8; i++ {
		b.WriteString("public ecall_")
		b.WriteByte(byte('a' + i))
		b.WriteString("();")
	}
	b.WriteString("}; };")
	fs := Analyze(parse(t, b.String()), Options{})
	wide := false
	for _, f := range fs {
		if f.Call == "(interface)" {
			wide = true
			if f.Score != 8 {
				t.Fatalf("wide-surface score = %v, want 8", f.Score)
			}
		}
	}
	if !wide {
		t.Fatal("8 public ecalls not flagged as wide surface")
	}
	// One below the default threshold: no finding.
	fs = Analyze(parse(t, strings.Replace(b.String(), "public ecall_h();", "", 1)), Options{})
	for _, f := range fs {
		if f.Call == "(interface)" {
			t.Fatal("7 public ecalls flagged at threshold 8")
		}
	}
}

func TestSwitchlessSkipsSyncAndAllowOcalls(t *testing.T) {
	iface := parse(t, `enclave { trusted { public e(); ecall_cb(); }; untrusted { ocall_fast(); ocall_gate() allow(ecall_cb); }; };`)
	sdk.WithSyncOcalls(iface)
	fs := Analyze(iface, Options{})
	for _, f := range fs {
		if f.Problem != analyzer.ProblemTransitionBound {
			continue
		}
		if strings.Contains(f.Evidence, sdk.OcallThreadWait) {
			t.Fatalf("sync ocall nominated for switchless: %s", f.Evidence)
		}
		if f.Call != "ocall_fast" {
			t.Fatalf("switchless candidate = %q, want ocall_fast", f.Call)
		}
	}
}

func TestStaticReportCarriesValidateWarnings(t *testing.T) {
	r := Static(parse(t, lintEDL), Options{})
	if r.Source != SourceStatic {
		t.Fatalf("source = %v", r.Source)
	}
	if r.Summary.Ecalls != 6 || r.Summary.PublicEcalls != 4 || r.Summary.Ocalls != 5 {
		t.Fatalf("summary = %+v", r.Summary)
	}
	if r.Summary.UserCheckParams != 2 || r.Summary.AllowEdges != 1 {
		t.Fatalf("summary = %+v", r.Summary)
	}
	if len(r.Warnings) == 0 {
		t.Fatal("Validate warnings not carried into the report")
	}
	text := r.Render()
	for _, want := range []string{"static", "user_check", "ocall_wait", "ecall_orphan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, text)
		}
	}
}

func TestHybridRanksByObservedCounts(t *testing.T) {
	iface := parse(t, lintEDL)
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	trace.Meta.Insert(events.TraceMeta{Workload: "hybrid-test"})
	// ecall_put runs hot; ecall_get never runs.
	for i := 0; i < 100; i++ {
		trace.Ecalls.Insert(events.CallEvent{Kind: events.KindEcall, Name: "ecall_put"})
	}
	trace.Ocalls.Insert(events.CallEvent{Kind: events.KindOcall, Name: "ocall_wait"})
	// An undeclared ocall (e.g. from an SDK layer the EDL does not model).
	trace.Ocalls.Insert(events.CallEvent{Kind: events.KindOcall, Name: sdk.OcallThreadWait})

	r, err := Hybrid(iface, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceHybrid || r.Workload != "hybrid-test" {
		t.Fatalf("source = %v, workload = %q", r.Source, r.Workload)
	}
	// The hot call's copy finding must outrank the never-executed one.
	var putIdx, getIdx = -1, -1
	for i, f := range r.Findings {
		if f.Problem != analyzer.ProblemLargeCopies {
			continue
		}
		switch f.Call {
		case "ecall_put":
			putIdx = i
			if f.Observed != 100 {
				t.Fatalf("ecall_put observed = %d", f.Observed)
			}
		case "ecall_get":
			getIdx = i
			if f.Observed != 0 || f.HybridScore != 0 {
				t.Fatalf("ecall_get observed = %d, rank %v", f.Observed, f.HybridScore)
			}
		}
	}
	if putIdx == -1 || getIdx == -1 || putIdx > getIdx {
		t.Fatalf("hybrid ranking wrong: put at %d, get at %d", putIdx, getIdx)
	}
	// Never-executed flagged calls are static-only.
	static := strings.Join(r.StaticOnly, ",")
	if !strings.Contains(static, "ecall_get") {
		t.Fatalf("static-only = %v", r.StaticOnly)
	}
	if strings.Contains(static, "ecall_put") {
		t.Fatalf("executed call listed static-only: %v", r.StaticOnly)
	}
	// The undeclared sync ocall is dynamic-only with the SDK note.
	if len(r.DynamicOnly) != 1 || r.DynamicOnly[0].Name != sdk.OcallThreadWait {
		t.Fatalf("dynamic-only = %+v", r.DynamicOnly)
	}
	if r.DynamicOnly[0].Note == "" {
		t.Fatal("sync ocall missing the SDK note")
	}
}

func TestHybridNeedsTrace(t *testing.T) {
	if _, err := Hybrid(parse(t, lintEDL), nil, Options{}); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestHybridRecoversInterfaceFromTrace(t *testing.T) {
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	trace.Enclaves.Insert(events.EnclaveMeta{Name: "e", EDL: lintEDL})
	r, err := Hybrid(nil, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Ecalls != 6 {
		t.Fatalf("recovered interface summary = %+v", r.Summary)
	}
	if _, err := Hybrid(nil, mustTrace(t), Options{}); err == nil {
		t.Fatal("trace without EDL accepted with nil interface")
	}
}

func mustTrace(t *testing.T) *events.Trace {
	t.Helper()
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCopyCostEvidenceMentionsBreakeven(t *testing.T) {
	fs := Analyze(parse(t, lintEDL), Options{})
	for _, f := range fs {
		if f.Problem == analyzer.ProblemLargeCopies && f.Call == "ecall_put" {
			if !strings.Contains(f.Evidence, "KiB") {
				t.Fatalf("copy evidence lacks break-even size: %s", f.Evidence)
			}
			return
		}
	}
	t.Fatal("no copy finding for ecall_put")
}
