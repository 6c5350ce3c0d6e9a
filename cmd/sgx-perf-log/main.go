// Command sgx-perf-log runs one of the evaluation workloads on the
// simulated SGX host with the sgx-perf event logger preloaded, and writes
// the recorded trace to a file for later analysis with sgx-perf-analyze —
// the same split the paper's toolchain uses (§4).
//
// Usage:
//
//	sgx-perf-log -workload sqlite -variant enclave -ops 2000 -o trace.evdb
//	sgx-perf-log -workload talos -ops 1000 -aex count -o talos.evdb
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sgxperf"
	"sgxperf/internal/perf/events"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-log:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload   = flag.String("workload", "", "workload to run: "+fmt.Sprint(sgxperf.Workloads()))
		variant    = flag.String("variant", "", "workload variant (default: the enclave variant)")
		ops        = flag.Int("ops", 0, "operation count (workload-specific default)")
		duration   = flag.Duration("duration", 0, "virtual-time bound instead of -ops")
		aex        = flag.String("aex", "off", "AEX observation: off, count, trace")
		mitigation = flag.String("mitigation", "vanilla", "microcode state: vanilla, spectre, l1tf")
		out        = flag.String("o", "trace.evdb", "output trace file")
	)
	flag.Parse()
	if *workload == "" {
		flag.Usage()
		return fmt.Errorf("missing -workload")
	}
	mode, err := parseAEX(*aex)
	if err != nil {
		return err
	}
	mit, err := parseMitigation(*mitigation)
	if err != nil {
		return err
	}

	start := time.Now()
	runRes, err := sgxperf.RunWorkload(*workload, sgxperf.WorkloadOptions{
		Variant:    *variant,
		Ops:        *ops,
		Duration:   *duration,
		Mitigation: mit,
		Logger:     true,
		AEX:        mode,
	})
	if err != nil {
		return err
	}
	fmt.Println(runRes.Result.String())
	fmt.Printf("recorded %d ecall, %d ocall, %d AEX, %d paging, %d sync events (wall %v)\n",
		runRes.Trace.Ecalls.Len(), runRes.Trace.Ocalls.Len(), runRes.Trace.AEXs.Len(),
		runRes.Trace.Paging.Len(), runRes.Trace.Syncs.Len(), time.Since(start).Round(time.Millisecond))
	// Save in stream order, so sgx-perf-analyze -stream accepts the
	// file as is and the fold reads every table in place.
	events.StreamSort(runRes.Trace)
	if err := runRes.Trace.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n", *out)
	return nil
}

func parseAEX(s string) (sgxperf.AEXMode, error) {
	switch s {
	case "off":
		return sgxperf.AEXOff, nil
	case "count":
		return sgxperf.AEXCount, nil
	case "trace":
		return sgxperf.AEXTrace, nil
	default:
		return 0, fmt.Errorf("unknown -aex %q (off, count, trace)", s)
	}
}

func parseMitigation(s string) (sgxperf.MitigationLevel, error) {
	switch s {
	case "vanilla", "none":
		return sgxperf.MitigationNone, nil
	case "spectre":
		return sgxperf.MitigationSpectre, nil
	case "l1tf", "full", "spectre+l1tf":
		return sgxperf.MitigationFull, nil
	default:
		return 0, fmt.Errorf("unknown -mitigation %q (vanilla, spectre, l1tf)", s)
	}
}
