// Command sgx-perf-analyze analyses a trace file recorded by
// sgx-perf-log: general statistics, the Table 1 anti-pattern detectors
// with recommendations, security hints, and optional DOT call graphs,
// histograms and scatter data (§4.3).
//
// Usage:
//
//	sgx-perf-analyze trace.evdb
//	sgx-perf-analyze -dot graph.dot -hist sgx_ecall_SSL_read trace.evdb
//	sgx-perf-analyze -edl enclave.edl trace.evdb
//	sgx-perf-analyze -json trace.evdb
//
// -json emits the report as an api/v1 wire document in the canonical
// serialisation — byte-for-byte what sgx-perf-serve answers on
// GET /v1/traces/{id}/report for the same trace.
//
// -stream analyses the trace through the out-of-core streaming fold:
// the file is read chunk-by-chunk and memory stays bounded by the chunk
// size, not the trace size, so traces larger than RAM analyse fine. The
// report is identical to the resident path's, which runs the same fold
// over sorted copies of the loaded tables; the trace must be saved in
// stream order (sgx-perf-log emits it; an unsorted file is rejected).
// Event-level flags (-hist, -scatter, -csv-dir, -compare) need the
// resident event set and do not combine with -stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sgxperf"
	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-analyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dotOut  = flag.String("dot", "", "write the Fig. 5-style call graph to this DOT file")
		histFor = flag.String("hist", "", "print a histogram of this call's execution times (Fig. 7)")
		bins    = flag.Int("bins", 100, "histogram bin count")
		scatFor = flag.String("scatter", "", "print scatter data for this call (Fig. 8)")
		edlPath = flag.String("edl", "", "EDL file for the security checks (default: the EDL embedded in the trace)")
		csvDir  = flag.String("csv-dir", "", "write stats.csv (plus histogram/scatter CSVs and gnuplot scripts for -hist/-scatter) into this directory")
		compare = flag.String("compare", "", "second trace file: print a before/after comparison (the §5.2 optimise-and-remeasure workflow)")
		enclave = flag.Uint64("enclave", 0, "restrict the analysis to one enclave ID (0 = all)")
		jsonOut = flag.Bool("json", false, "emit the report as an api/v1 JSON document instead of text")
		stream  = flag.Bool("stream", false, "analyse out-of-core: read the trace chunk-by-chunk with bounded memory (for traces larger than RAM)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected exactly one trace file argument")
	}
	opts := sgxperf.AnalyzerOptions{Enclave: sgxperf.EnclaveID(*enclave)}
	if *stream {
		for name, set := range map[string]bool{
			"-hist": *histFor != "", "-scatter": *scatFor != "",
			"-csv-dir": *csvDir != "", "-compare": *compare != "",
		} {
			if set {
				return fmt.Errorf("%s needs the resident event set and cannot combine with -stream", name)
			}
		}
		if err := loadEDL(*edlPath, &opts); err != nil {
			return err
		}
		return runStream(flag.Arg(0), opts, *jsonOut, *dotOut)
	}
	trace, err := sgxperf.LoadTrace(flag.Arg(0))
	if err != nil {
		return err
	}
	if err := loadEDL(*edlPath, &opts); err != nil {
		return err
	}
	a, err := sgxperf.NewAnalyzer(trace, opts)
	if err != nil {
		return err
	}
	if *compare != "" {
		other, err := sgxperf.LoadTrace(*compare)
		if err != nil {
			return err
		}
		b, err := sgxperf.NewAnalyzer(other, sgxperf.AnalyzerOptions{})
		if err != nil {
			return err
		}
		fmt.Print(analyzer.Compare(a.Analyze(), b.Analyze()).Render())
		return nil
	}
	report := a.Analyze()
	if *jsonOut {
		raw, err := apiv1.Marshal(apiv1.FromReport(report))
		if err != nil {
			return err
		}
		fmt.Print(string(raw))
		return nil
	}
	fmt.Print(report.Render())

	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(report.Graph.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Printf("call graph written to %s (render with: dot -Tpdf)\n", *dotOut)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*csvDir, "stats.csv"), []byte(report.StatsCSV()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*csvDir, "wakegraph.csv"), []byte(report.WakeGraphCSV()), 0o644); err != nil {
			return err
		}
		written := []string{"stats.csv", "wakegraph.csv"}
		if *histFor != "" {
			csv, err := a.HistogramCSV(*histFor, *bins)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*csvDir, "histogram.csv"), []byte(csv), 0o644); err != nil {
				return err
			}
			script := analyzer.GnuplotHistogram(*histFor, "histogram.csv", "histogram.pdf")
			if err := os.WriteFile(filepath.Join(*csvDir, "histogram.gp"), []byte(script), 0o644); err != nil {
				return err
			}
			written = append(written, "histogram.csv", "histogram.gp")
		}
		if *scatFor != "" {
			csv, err := a.ScatterCSV(*scatFor)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*csvDir, "scatter.csv"), []byte(csv), 0o644); err != nil {
				return err
			}
			script := analyzer.GnuplotScatter(*scatFor, "scatter.csv", "scatter.pdf")
			if err := os.WriteFile(filepath.Join(*csvDir, "scatter.gp"), []byte(script), 0o644); err != nil {
				return err
			}
			written = append(written, "scatter.csv", "scatter.gp")
		}
		fmt.Printf("wrote %v to %s (render plots with gnuplot)\n", written, *csvDir)
	}
	if *histFor != "" {
		hist := a.Histogram(*histFor, *bins)
		if hist == nil {
			return fmt.Errorf("no events for call %q", *histFor)
		}
		fmt.Printf("\nhistogram of %s (%d bins):\n", *histFor, *bins)
		for _, b := range hist {
			if b.Count == 0 {
				continue
			}
			fmt.Printf("%12s – %-12s %d\n",
				b.Lo.Round(100*time.Nanosecond), b.Hi.Round(100*time.Nanosecond), b.Count)
		}
	}
	if *scatFor != "" {
		pts := a.Scatter(*scatFor)
		if pts == nil {
			return fmt.Errorf("no events for call %q", *scatFor)
		}
		fmt.Printf("\nscatter of %s (time-since-start, execution-time):\n", *scatFor)
		for _, p := range pts {
			fmt.Printf("%v\t%v\n", p.T, p.Dur)
		}
	}
	return nil
}

// loadEDL reads and parses an -edl file into opts (no-op when the flag
// is empty, which selects the EDL embedded in the trace).
func loadEDL(path string, opts *sgxperf.AnalyzerOptions) error {
	if path == "" {
		return nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	iface, warnings, err := sgxperf.ParseEDL(string(src))
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "edl warning:", w)
	}
	opts.Interface = iface
	return nil
}

// runStream is the -stream path: the trace file is analysed through
// the bounded-memory fold without ever loading its tables.
func runStream(path string, opts sgxperf.AnalyzerOptions, jsonOut bool, dotOut string) error {
	st, err := events.OpenStreamTrace(path)
	if err != nil {
		return err
	}
	defer st.Close()
	src, err := analyzer.NewStreamTraceSource(st)
	if err != nil {
		return err
	}
	report, err := analyzer.AnalyzeStream(src, opts)
	if err != nil {
		return err
	}
	if jsonOut {
		raw, err := apiv1.Marshal(apiv1.FromReport(report))
		if err != nil {
			return err
		}
		fmt.Print(string(raw))
		return nil
	}
	fmt.Print(report.Render())
	if dotOut != "" {
		if err := os.WriteFile(dotOut, []byte(report.Graph.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Printf("call graph written to %s (render with: dot -Tpdf)\n", dotOut)
	}
	return nil
}
