// Command sgx-perf-lint runs the static interface analysis: findings
// from an enclave's EDL alone, with no workload run. Given a trace it
// switches to hybrid mode — static findings re-ranked by observed call
// counts, with static-only and dynamic-only discrepancies flagged.
//
// With -source the concurrency dataflow pass joins in: the Go sources
// under the given root are analysed for locks held across blocking
// boundaries and lock-order cycles, and those findings merge with the
// interface ones, priced from the same machine cost model.
//
// Usage:
//
//	sgx-perf-lint -edl enclave.edl
//	sgx-perf-lint -workload securekeeper
//	sgx-perf-lint -workload sqlite -trace trace.evdb
//	sgx-perf-lint -workload contend -source . -source-dirs internal/workloads/contend
//	sgx-perf-lint -edl enclave.edl -json
//	sgx-perf-lint -workload securekeeper -switchless-config > switchless.json
//
// -json emits the report as an api/v1 wire document (the schema shared
// with sgx-perf-serve's /v1/traces/{id}/lint endpoint).
//
// -switchless-config turns the Transition-Bound Calls findings into the
// machine-readable configuration sgxperf.WithSwitchless consumes,
// closing the lint → config → re-measure loop from the command line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sgxperf"
	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/edl"
	"sgxperf/internal/workloads/amplify"
	"sgxperf/internal/workloads/contend"
	"sgxperf/internal/workloads/keeper"
	"sgxperf/internal/workloads/leaky"
	"sgxperf/internal/workloads/minidb"
)

// bundledInterfaces maps workload names to their interface builders, so
// the bundled studies can be linted without an EDL file on disk.
var bundledInterfaces = map[string]func() (*edl.Interface, error){
	"securekeeper": keeper.Interface,
	"sqlite":       minidb.Interface,
	"contend":      contend.Interface,
	"amplify":      amplify.Interface,
	"leaky":        leaky.Interface,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-lint:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload  = flag.String("workload", "", "lint a bundled workload's interface (securekeeper, sqlite, contend, amplify, leaky)")
		edlPath   = flag.String("edl", "", "lint the interface in this EDL file")
		tracePath = flag.String("trace", "", "trace file for hybrid mode (rank findings by observed call counts)")
		jsonOut   = flag.Bool("json", false, "emit the report as an api/v1 JSON document")
		wideMin   = flag.Int("wide-surface", 0, "public-ecall count that flags a wide surface (0 = default)")
		srcRoot   = flag.String("source", "", "also run the concurrency dataflow pass over the Go sources under this root")
		srcDirs   = flag.String("source-dirs", "", "comma-separated root-relative directories limiting the source pass (default: the whole tree)")
		slConfig  = flag.Bool("switchless-config", false, "emit the machine-readable switchless configuration derived from the Transition-Bound Calls findings instead of the report")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}

	var iface *sgxperf.Interface
	switch {
	case *workload != "" && *edlPath != "":
		return fmt.Errorf("-workload and -edl are mutually exclusive")
	case *workload != "":
		build, ok := bundledInterfaces[*workload]
		if !ok {
			names := make([]string, 0, len(bundledInterfaces))
			for n := range bundledInterfaces {
				names = append(names, n)
			}
			return fmt.Errorf("unknown workload %q (have %v)", *workload, names)
		}
		var err error
		if iface, err = build(); err != nil {
			return err
		}
	case *edlPath != "":
		src, err := os.ReadFile(*edlPath)
		if err != nil {
			return err
		}
		parsed, warnings, err := sgxperf.ParseEDL(string(src))
		if err != nil {
			return fmt.Errorf("parse %s: %w", *edlPath, err)
		}
		for _, w := range warnings {
			fmt.Fprintln(os.Stderr, "edl warning:", w)
		}
		iface = parsed
	case *tracePath == "":
		flag.Usage()
		return fmt.Errorf("need -workload, -edl or -trace")
	}

	opts := sgxperf.LintOptions{WideSurfaceMin: *wideMin, SourceRoot: *srcRoot}
	if *srcDirs != "" {
		if *srcRoot == "" {
			return fmt.Errorf("-source-dirs needs -source")
		}
		for _, d := range strings.Split(*srcDirs, ",") {
			if d = strings.TrimSpace(d); d != "" {
				opts.SourceDirs = append(opts.SourceDirs, d)
			}
		}
	}
	if *slConfig {
		if iface == nil {
			return fmt.Errorf("-switchless-config needs -workload or -edl")
		}
		cfg := sgxperf.SwitchlessConfigFrom(iface)
		if cfg == nil {
			return fmt.Errorf("no transition-bound calls in the interface; nothing to route switchless")
		}
		raw, err := cfg.JSON()
		if err != nil {
			return err
		}
		fmt.Print(string(raw))
		return nil
	}

	var report *sgxperf.LintReport
	if *tracePath != "" {
		trace, err := sgxperf.LoadTrace(*tracePath)
		if err != nil {
			return err
		}
		if report, err = sgxperf.HybridLint(iface, trace, opts); err != nil {
			return err
		}
	} else {
		report = sgxperf.StaticLint(iface, opts)
	}

	if !*jsonOut {
		fmt.Print(report.Render())
		return nil
	}
	raw, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		return err
	}
	fmt.Print(string(raw))
	return nil
}
