package sgxperf_test

import (
	"fmt"
	"time"

	"sgxperf"
)

// Example traces a small enclave application and checks what the analyser
// finds. Everything runs on deterministic virtual time, so the output is
// stable.
func Example() {
	h, err := sgxperf.NewHost()
	if err != nil {
		fmt.Println(err)
		return
	}
	lg, err := sgxperf.AttachLogger(h, sgxperf.LoggerOptions{Workload: "example"})
	if err != nil {
		fmt.Println(err)
		return
	}

	iface, _, err := sgxperf.ParseEDL(`
		enclave {
			trusted   { public ecall_tiny(); };
			untrusted { ocall_log(); };
		};
	`)
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx := h.NewContext("main")
	app, err := h.URTS.CreateEnclave(ctx, sgxperf.EnclaveConfig{Name: "example"}, iface,
		map[string]sgxperf.TrustedFn{
			// A trivially short ecall: the SISC anti-pattern (§3.1).
			"ecall_tiny": func(env *sgxperf.Env, args any) (any, error) {
				env.Compute(300 * time.Nanosecond)
				return nil, nil
			},
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	otab, err := sgxperf.BuildOcallTable(iface, h, map[string]sgxperf.OcallFn{
		"ocall_log": func(ctx *sgxperf.Context, args any) (any, error) { return nil, nil },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	proxies := sgxperf.Proxies(app, h, otab)
	for i := 0; i < 1000; i++ {
		if _, err := proxies["ecall_tiny"](ctx, nil); err != nil {
			fmt.Println(err)
			return
		}
	}

	report := sgxperf.MustAnalyze(lg.Trace())
	fmt.Println("ecall events recorded:", lg.Trace().Ecalls.Len())
	fmt.Println("SISC detected:", report.HasProblem(sgxperf.ProblemSISC))
	for _, f := range report.FindingsFor("ecall_tiny") {
		fmt.Printf("finding: [%s] first recommendation: %s\n", f.Problem, f.Solutions[0])
		break
	}
	// Output:
	// ecall events recorded: 1000
	// SISC detected: true
	// finding: [Short Identical Successive Calls] first recommendation: batch calls
}

// ExampleNewSession is the Example quick start collapsed into the
// Session builder: one call replaces NewHost, AttachLogger, ParseEDL,
// BuildOcallTable and Proxies.
func ExampleNewSession() {
	s, err := sgxperf.NewSession(
		sgxperf.WithEDL(`
			enclave {
				trusted   { public ecall_tiny(); };
				untrusted { ocall_log(); };
			};
		`),
		sgxperf.WithOcallImpls(map[string]sgxperf.OcallFn{
			"ocall_log": func(ctx *sgxperf.Context, args any) (any, error) { return nil, nil },
		}),
		sgxperf.WithLogger(sgxperf.LoggerOptions{Workload: "session-example"}),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	ctx := s.NewContext("main")
	enc, err := s.Enclave(ctx, sgxperf.EnclaveConfig{Name: "example"},
		map[string]sgxperf.TrustedFn{
			"ecall_tiny": func(env *sgxperf.Env, args any) (any, error) {
				env.Compute(300 * time.Nanosecond)
				return nil, nil
			},
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i := 0; i < 1000; i++ {
		if _, err := enc.Call(ctx, "ecall_tiny", nil); err != nil {
			fmt.Println(err)
			return
		}
	}
	report, err := s.Analyze()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("ecall events recorded:", s.Logger.Trace().Ecalls.Len())
	fmt.Println("SISC detected:", report.HasProblem(sgxperf.ProblemSISC))
	// Output:
	// ecall events recorded: 1000
	// SISC detected: true
}

// ExampleSession_Live monitors a workload while it runs: the collector
// streams events off the recorder's flush path, and once the workload
// quiesces its snapshot matches the post-mortem analysis exactly.
func ExampleSession_Live() {
	s, err := sgxperf.NewSession(
		sgxperf.WithEDL(`enclave { trusted { public ecall_spin(); }; };`),
		sgxperf.WithLogger(sgxperf.LoggerOptions{Workload: "live-example"}),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	col, err := s.Live(sgxperf.LiveOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer col.Close()

	ctx := s.NewContext("main")
	enc, err := s.Enclave(ctx, sgxperf.EnclaveConfig{Name: "live"},
		map[string]sgxperf.TrustedFn{
			"ecall_spin": func(env *sgxperf.Env, args any) (any, error) {
				env.Compute(400 * time.Nanosecond)
				return nil, nil
			},
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i := 0; i < 500; i++ {
		if _, err := enc.Call(ctx, "ecall_spin", nil); err != nil {
			fmt.Println(err)
			return
		}
		// A dashboard would call col.Snapshot() here at any time.
	}

	col.Drain()
	snap := col.Snapshot()
	fmt.Println("ecalls streamed:", snap.Counts.Ecalls)
	fmt.Println("live findings:", len(snap.Findings))
	report, _ := s.Analyze()
	fmt.Println("matches post-mortem:", len(snap.Findings) == len(report.Findings))
	// Output:
	// ecalls streamed: 500
	// live findings: 2
	// matches post-mortem: true
}

// ExampleRunWorkload reproduces a slice of the paper's SQLite study
// (§5.2.2) through the workload registry.
func ExampleRunWorkload() {
	run, err := sgxperf.RunWorkload("sqlite", sgxperf.WorkloadOptions{
		Variant: "enclave",
		Ops:     100,
		Logger:  true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("inserts:", run.Result.Ops)

	report := sgxperf.MustAnalyze(run.Trace)
	merge := false
	for _, f := range report.Findings {
		if f.Problem == sgxperf.ProblemSDSC && f.Partner == "ocall_lseek" {
			merge = true
		}
	}
	fmt.Println("lseek+write merge recommended:", merge)
	// Output:
	// inserts: 100
	// lseek+write merge recommended: true
}

// ExampleCatalogue prints the problem classes: Table 1's six plus the
// eight the static analysers add (reentrancy, boundary copies,
// transition-bound calls, locks held across the boundary,
// loop-amplified transitions, boundary data hazards, secret data
// crossing the boundary, boundary direction mismatches).
func ExampleCatalogue() {
	fmt.Println("problem classes:", len(sgxperf.Catalogue()))
	// Output:
	// problem classes: 14
}
