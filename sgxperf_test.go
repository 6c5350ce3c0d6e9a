package sgxperf_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sgxperf"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

func TestPublicAPIQuickstart(t *testing.T) {
	h, err := sgxperf.NewHost()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := sgxperf.AttachLogger(h, sgxperf.LoggerOptions{Workload: "api-test"})
	if err != nil {
		t.Fatal(err)
	}
	iface, _, err := sgxperf.ParseEDL(`
		enclave {
			trusted { public ecall_ping(); };
			untrusted { ocall_pong(); };
		};
	`)
	if err != nil {
		t.Fatal(err)
	}
	impl := map[string]sgxperf.TrustedFn{
		"ecall_ping": func(env *sgxperf.Env, args any) (any, error) {
			return env.Ocall("ocall_pong", nil)
		},
	}
	ctx := h.NewContext("main")
	app, err := h.URTS.CreateEnclave(ctx, sgxperf.EnclaveConfig{Name: "api"}, iface, impl)
	if err != nil {
		t.Fatal(err)
	}
	otab, err := sgxperf.BuildOcallTable(iface, h, map[string]sgxperf.OcallFn{
		"ocall_pong": func(ctx *sgxperf.Context, args any) (any, error) { return "pong", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	proxies := sgxperf.Proxies(app, h, otab)
	res, err := proxies["ecall_ping"](ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != "pong" {
		t.Fatalf("res = %v", res)
	}
	report := sgxperf.MustAnalyze(lg.Trace())
	if report.TotalCalls() != 2 {
		t.Fatalf("total calls = %d", report.TotalCalls())
	}
	if !strings.Contains(report.Render(), "ecall_ping") {
		t.Fatal("report missing the ecall")
	}
}

// TestSessionQuickstart drives the same application as
// TestPublicAPIQuickstart through the Session builder and checks the
// live collector agrees with the post-mortem report.
func TestSessionQuickstart(t *testing.T) {
	s, err := sgxperf.NewSession(
		sgxperf.WithEDL(`
			enclave {
				trusted { public ecall_ping(); };
				untrusted { ocall_pong(); };
			};
		`),
		sgxperf.WithOcallImpls(map[string]sgxperf.OcallFn{
			"ocall_pong": func(ctx *sgxperf.Context, args any) (any, error) { return "pong", nil },
		}),
		sgxperf.WithLogger(sgxperf.LoggerOptions{Workload: "session-test", AEX: sgxperf.AEXCount}),
	)
	if err != nil {
		t.Fatal(err)
	}
	col, err := s.Live(sgxperf.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctx := s.NewContext("main")
	enc, err := s.Enclave(ctx, sgxperf.EnclaveConfig{Name: "api"},
		map[string]sgxperf.TrustedFn{
			"ecall_ping": func(env *sgxperf.Env, args any) (any, error) {
				return env.Ocall("ocall_pong", nil)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.Call(ctx, "ecall_ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != "pong" {
		t.Fatalf("res = %v", res)
	}
	if _, err := enc.Call(ctx, "ecall_ghost", nil); err == nil {
		t.Fatal("unknown ecall accepted")
	}
	report, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalCalls() != 2 {
		t.Fatalf("total calls = %d", report.TotalCalls())
	}
	col.Drain()
	snap := col.Snapshot()
	if snap.Counts.Ecalls != 1 || snap.Counts.Ocalls != 1 {
		t.Fatalf("live counts = %+v", snap.Counts)
	}
	if snap.Workload != "session-test" {
		t.Fatalf("live workload = %q", snap.Workload)
	}
	s.Close()
	if !s.Logger.Detached() {
		t.Fatal("session close did not detach the logger")
	}
}

// TestSessionAnalyzeMatchesStream records a workload through a Session
// and checks its report equals the standalone analyser's on the
// session's trace and the out-of-core fold's over a saved, stream-sorted
// copy of it.
func TestSessionAnalyzeMatchesStream(t *testing.T) {
	s, err := sgxperf.NewSession(
		sgxperf.WithEDL(`
			enclave {
				trusted { public ecall_put(); public ecall_get(); };
				untrusted { ocall_read(); ocall_write(); };
			};
		`),
		sgxperf.WithOcallImpls(map[string]sgxperf.OcallFn{
			"ocall_read":  func(ctx *sgxperf.Context, args any) (any, error) { return nil, nil },
			"ocall_write": func(ctx *sgxperf.Context, args any) (any, error) { return nil, nil },
		}),
		sgxperf.WithLogger(sgxperf.LoggerOptions{Workload: "session-vs-stream", AEX: sgxperf.AEXCount}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := s.NewContext("main")
	enc, err := s.Enclave(ctx, sgxperf.EnclaveConfig{Name: "kv"},
		map[string]sgxperf.TrustedFn{
			"ecall_put": func(env *sgxperf.Env, args any) (any, error) {
				return env.Ocall("ocall_write", nil)
			},
			"ecall_get": func(env *sgxperf.Env, args any) (any, error) {
				if _, err := env.Ocall("ocall_read", nil); err != nil {
					return nil, err
				}
				return env.Ocall("ocall_read", nil)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		name := "ecall_put"
		if i%3 == 0 {
			name = "ecall_get"
		}
		if _, err := enc.Call(ctx, name, nil); err != nil {
			t.Fatal(err)
		}
	}

	report, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sgxperf.NewAnalyzer(s.Logger.Trace(), sgxperf.AnalyzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Analyze(), report) {
		t.Fatal("standalone analyser differs from the Session report")
	}
	// The same events saved in stream order and folded from disk.
	path := filepath.Join(t.TempDir(), "session.evdb")
	if err := s.Logger.Trace().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	sorted, err := sgxperf.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	events.StreamSort(sorted)
	if err := sorted.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := events.OpenStreamTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src, err := analyzer.NewStreamTraceSource(st)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := analyzer.AnalyzeStream(src, sgxperf.AnalyzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, report) {
		t.Fatal("out-of-core report differs from the Session report")
	}
}

// TestSentinelErrorsThroughReexports asserts errors.Is matches the
// sentinels through every layer of wrapping the re-exports add.
func TestSentinelErrorsThroughReexports(t *testing.T) {
	if _, err := sgxperf.NewAnalyzer(nil, sgxperf.AnalyzerOptions{}); !errors.Is(err, sgxperf.ErrNoTrace) {
		t.Fatalf("NewAnalyzer(nil) = %v, want ErrNoTrace", err)
	}
	if _, err := sgxperf.Analyze(nil); !errors.Is(err, sgxperf.ErrNoTrace) {
		t.Fatalf("Analyze(nil) = %v, want ErrNoTrace", err)
	}
	h, err := sgxperf.NewHost()
	if err != nil {
		t.Fatal(err)
	}
	l, err := sgxperf.AttachLogger(h, sgxperf.LoggerOptions{Workload: "sentinel"})
	if err != nil {
		t.Fatal(err)
	}
	l.Detach()
	if _, err := sgxperf.AttachLive(l, sgxperf.LiveOptions{}); !errors.Is(err, sgxperf.ErrLoggerDetached) {
		t.Fatalf("AttachLive(detached) = %v, want ErrLoggerDetached", err)
	} else if !strings.Contains(err.Error(), "live: attach") {
		t.Fatalf("wrapped error lost its context: %v", err)
	}
}

func TestRunWorkloadAndTraceFileRoundTrip(t *testing.T) {
	run, err := sgxperf.RunWorkload("sqlite", sgxperf.WorkloadOptions{
		Variant: "enclave",
		Ops:     50,
		Logger:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.Ops != 50 || run.Trace == nil {
		t.Fatalf("run = %+v", run)
	}
	path := filepath.Join(t.TempDir(), "trace.evdb")
	if err := run.Trace.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := sgxperf.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Ecalls.Len() != run.Trace.Ecalls.Len() {
		t.Fatalf("loaded %d ecalls, want %d", loaded.Ecalls.Len(), run.Trace.Ecalls.Len())
	}
	// Analysis works on the loaded trace (including the embedded EDL).
	a, err := sgxperf.NewAnalyzer(loaded, sgxperf.AnalyzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interface() == nil {
		t.Fatal("embedded EDL not recovered from the trace file")
	}
}

func TestRunWorkloadUnknownNames(t *testing.T) {
	if _, err := sgxperf.RunWorkload("ghost", sgxperf.WorkloadOptions{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := sgxperf.WorkloadVariants("ghost"); err == nil {
		t.Fatal("unknown workload accepted by WorkloadVariants")
	}
	for _, w := range sgxperf.Workloads() {
		vs, err := sgxperf.WorkloadVariants(w)
		if err != nil || len(vs) == 0 {
			t.Fatalf("variants(%s) = %v, %v", w, vs, err)
		}
	}
}

func TestRunWorkloadWithWorkingSet(t *testing.T) {
	run, err := sgxperf.RunWorkload("glamdring", sgxperf.WorkloadOptions{
		Variant:    "enclave",
		Ops:        1,
		WorkingSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.SteadyPages == 0 {
		t.Fatal("working set not measured")
	}
}

func TestCatalogueAndWeightsExposed(t *testing.T) {
	// Table 1's six problem classes plus the eight static classes
	// (reentrancy, boundary copies, transition-bound calls, locks held
	// across the boundary, loop-amplified transitions, boundary data
	// hazards, secret leaks, direction mismatches).
	if len(sgxperf.Catalogue()) != 14 {
		t.Fatal("problem catalogue incomplete")
	}
	w := sgxperf.DefaultWeights()
	if w.Move1 != 0.35 || w.Move5 != 0.50 || w.Move10 != 0.65 {
		t.Fatalf("Equation 1 defaults wrong: %+v", w)
	}
	if sgxperf.DefaultFrequency.Duration(sgxperf.Cycles(3.4e9)) != time.Second {
		t.Fatal("frequency helpers broken")
	}
}
