// Command sgx-perf-bench regenerates every table and figure of the
// paper's evaluation on the simulated substrate, printing ours next to
// the paper's values.
//
// Usage:
//
//	sgx-perf-bench                     # run everything at default sizes
//	sgx-perf-bench -exp table2
//	sgx-perf-bench -exp fig6-libressl -signs 10
//	sgx-perf-bench -exp fig78 -duration 31s -full
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: all, transitions, table2, fig5, fig6-sqlite, fig6-libressl, fig78, ws-glamdring, ablation-lock, ablation-paging, ablation-switchless, switchless, contention, live, analyze, serve, outofcore")
		requests = flag.Int("requests", 1000, "fig5: HTTP GET count")
		inserts  = flag.Int("inserts", 2000, "fig6-sqlite: insert count")
		signs    = flag.Int("signs", 5, "fig6-libressl: signatures per variant")
		duration = flag.Duration("duration", time.Second, "fig78/live: load duration (paper: 31s)")
		full     = flag.Bool("full", false, "use the paper's full experiment sizes (slower)")
		dotOut   = flag.String("dot", "", "fig5: also write the call graph to this DOT file")
		ops      = flag.Int("ops", 20000, "contention: ecalls per thread")
		repeats  = flag.Int("repeats", 5, "contention: sweep repetitions (median is reported)")
		jsonOut  = flag.String("json", "", "contention/live/serve: write machine-readable results to this file")
		baseline = flag.String("baseline", "", "contention: previous -json output to compute speedups against")
		analyzeN = flag.Int("analyze-ops", 50000, "analyze: synthetic trace size in top-level calls")
		oocOps   = flag.Int("outofcore-ops", 0, "outofcore: synthetic trace size in top-level calls (0 = default; raise to push the resident path past RAM)")

		switchlessOps = flag.Int("switchless-ops", 400, "switchless: transition-bound calls per caller thread")
		serveSessions = flag.Int("serve-sessions", 0, "serve: concurrent analysis sessions (0 = default 8)")
		serveOps      = flag.Int("serve-ops", 0, "serve: calls per session trace (0 = default)")
		serveReqs     = flag.Int("serve-requests", 0, "serve: warm report requests per session in the throughput phase (0 = default)")
		liveView      = flag.Bool("live", false, "shorthand for -exp live: monitor the SecureKeeper run with streaming snapshots")
		interval      = flag.Duration("interval", 200*time.Millisecond, "live: wall-clock delay between streamed snapshots")
	)
	flag.Parse()
	if *liveView {
		*exp = "live"
	}
	if *full {
		*requests = 1000
		*inserts = 20000
		*signs = 30
		*duration = 31 * time.Second
	}

	runOne := func(name string) error {
		switch name {
		case "transitions":
			rows, err := experiments.Transitions()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTransitions(rows))
		case "table2":
			t2, err := experiments.RunTable2(experiments.Table2Options{})
			if err != nil {
				return err
			}
			fmt.Println(t2.Render())
		case "fig5":
			f, err := experiments.RunFig5(*requests)
			if err != nil {
				return err
			}
			fmt.Println(f.Render())
			if *dotOut != "" {
				if err := os.WriteFile(*dotOut, []byte(f.DOT), 0o644); err != nil {
					return err
				}
				fmt.Printf("call graph written to %s\n\n", *dotOut)
			}
		case "fig6-sqlite":
			rows, err := experiments.RunFig6SQLite(*inserts)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig6("SQLite inserts (paper: 1.00 / 0.57 / 0.76 vanilla bars)", rows))
		case "fig6-libressl":
			rows, err := experiments.RunFig6LibreSSL(*signs)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig6("LibreSSL signing (paper: 1.00 / 0.23 / 0.50 vanilla bars)", rows))
			speedups := experiments.Speedups(rows, "enclave", "optimized")
			fmt.Printf("optimised/enclave speedups: vanilla %.2fx, spectre %.2fx, l1tf %.2fx (paper: 2.16 / 2.66 / 2.87)\n\n",
				speedups["vanilla"], speedups["spectre"], speedups["spectre+l1tf"])
		case "fig78":
			f, err := experiments.RunFig78(*duration)
			if err != nil {
				return err
			}
			fmt.Println(f.Render())
		case "ws-glamdring":
			ws, err := experiments.RunGlamdringWorkingSet()
			if err != nil {
				return err
			}
			fmt.Println(ws.Render())
		case "ablation-lock":
			rows, err := experiments.RunHybridLockAblation(0, 0)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderHybridLock(rows))
		case "ablation-paging":
			rows, err := experiments.RunPagingAblation(0, 0, 0)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderPaging(rows))
		case "ablation-switchless":
			rows, err := experiments.RunSwitchlessAblation(*signs)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderSwitchless(rows))
		case "switchless":
			res, err := experiments.RunSwitchlessLoop(0, *switchlessOps)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderSwitchlessLoop(res))
			if err := checkSwitchlessLoop(res); err != nil {
				return err
			}
			if *jsonOut != "" {
				if err := mergeJSONKey(*jsonOut, "switchless", res); err != nil {
					return err
				}
				fmt.Printf("switchless results merged into %s\n\n", *jsonOut)
			}
		case "live":
			view, err := experiments.RunLive(*duration, *interval, func(t experiments.LiveTick) {
				fmt.Printf("[t+%v] +%d call events\n%s\n",
					t.Elapsed.Round(time.Millisecond), t.NewCalls,
					experiments.RenderLiveSnapshot(t.Snapshot))
			})
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderLiveRun(view))
			if *jsonOut != "" {
				if err := writeWireJSON(*jsonOut, liveResultsWire{
					SchemaVersion: apiv1.Version,
					DurationNs:    int64(view.Duration),
					Ticks:         view.Ticks,
					EventsSeen:    view.EventsSeen,
					Final:         apiv1.FromSnapshot(&view.Final),
				}); err != nil {
					return err
				}
				fmt.Printf("live results written to %s\n\n", *jsonOut)
			}
		case "serve":
			res, err := experiments.RunServeBench(*serveSessions, *serveOps, *serveReqs)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderServe(res))
			if err := checkServe(res); err != nil {
				return err
			}
			if *jsonOut != "" {
				if err := mergeJSONKey(*jsonOut, "serve", res); err != nil {
					return err
				}
				fmt.Printf("serve results merged into %s\n\n", *jsonOut)
			}
		case "contention":
			rows, err := experiments.RunLoggerContentionMedian(*ops, *repeats)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderContention(rows))
			liveRows, err := experiments.RunLoggerContentionLiveMedian(*ops, *repeats)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderContentionLive(liveRows))
			res := contentionResults{
				Benchmark:    "logger_contention",
				OpsPerThread: *ops,
				Repeats:      *repeats,
				Rows:         rows,
				LiveRows:     liveRows,
				LiveOverhead: contentionOverheads(rows, liveRows),
			}
			for _, r := range liveRows {
				key := fmt.Sprintf("threads=%d", r.Threads)
				if o, ok := res.LiveOverhead[key]; ok {
					fmt.Printf("live subscriber throughput at %s: %.1f%% of plain recording\n", key, o*100)
				}
			}
			fmt.Println()
			if *baseline != "" {
				base, err := readContentionBaseline(*baseline)
				if err != nil {
					return err
				}
				res.Baseline = base
				res.Speedup = contentionSpeedups(base, rows)
				for _, r := range rows {
					key := fmt.Sprintf("threads=%d", r.Threads)
					if s, ok := res.Speedup[key]; ok {
						fmt.Printf("speedup vs baseline at %s: %.2fx\n", key, s)
					}
				}
				fmt.Println()
			}
			if *jsonOut != "" {
				if err := writeJSON(*jsonOut, res); err != nil {
					return err
				}
				fmt.Printf("results written to %s\n\n", *jsonOut)
			}
		case "analyze":
			res, err := experiments.RunAnalyzeThroughput(*analyzeN, *repeats)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderAnalyze(res))
			if *jsonOut != "" {
				if err := mergeJSONKey(*jsonOut, "analyze", res); err != nil {
					return err
				}
				fmt.Printf("analyze results merged into %s\n\n", *jsonOut)
			}
		case "outofcore":
			res, err := experiments.RunOutOfCore(*oocOps)
			if err != nil {
				return err
			}
			if err := checkOutOfCore(res); err != nil {
				return err
			}
			fmt.Println(experiments.RenderOutOfCore(res))
			if *jsonOut != "" {
				if err := mergeJSONKey(*jsonOut, "outofcore", res); err != nil {
					return err
				}
				fmt.Printf("outofcore results merged into %s\n\n", *jsonOut)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *exp != "all" {
		return runOne(*exp)
	}
	for _, name := range []string{
		"transitions", "table2", "fig5", "fig6-sqlite", "fig6-libressl",
		"fig78", "ws-glamdring", "ablation-lock", "ablation-paging",
		"ablation-switchless", "switchless", "contention", "live", "analyze",
		"serve", "outofcore",
	} {
		start := time.Now()
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// checkSwitchlessLoop enforces the closed loop's acceptance criteria:
// the optimisation must come from the analyser, actually pay off, leave
// the workload's results untouched, and settle on a stable worker count.
func checkSwitchlessLoop(res *experiments.SwitchlessLoopResult) error {
	if !res.LintFoundTransitionBound {
		return fmt.Errorf("switchless: lint did not flag the transition-bound interface")
	}
	if res.ConfigSource != "staticlint" {
		return fmt.Errorf("switchless: config source %q, want \"staticlint\"", res.ConfigSource)
	}
	if res.SwitchlessChecksum != res.BaselineChecksum {
		return fmt.Errorf("switchless: results diverge: baseline checksum %d, switchless %d",
			res.BaselineChecksum, res.SwitchlessChecksum)
	}
	if res.Speedup < 1.5 {
		return fmt.Errorf("switchless: speedup %.2fx below the 1.5x bar", res.Speedup)
	}
	if !res.Converged {
		return fmt.Errorf("switchless: scheduler did not converge (worker count still moving in the final epochs)")
	}
	if res.TraceSwless.Served == 0 {
		return fmt.Errorf("switchless: trace shows no served switchless events — the observability fix regressed")
	}
	return nil
}

// checkServe enforces the always-on service's acceptance criteria: the
// served report must match the offline analyser exactly, the run must
// exercise real concurrency, the artifact cache must make warm requests
// at least 5x faster than cold ones, and an append must refold only the
// tail windows of the report behind /stats.
func checkServe(res *experiments.ServeResult) error {
	if !res.ServedEqualsOffline {
		return fmt.Errorf("serve: served report diverges from the offline analyser")
	}
	if res.Sessions < 8 {
		return fmt.Errorf("serve: only %d concurrent sessions, want >= 8", res.Sessions)
	}
	if res.WarmSpeedup < 5 {
		return fmt.Errorf("serve: warm/cold speedup %.1fx below the 5x bar", res.WarmSpeedup)
	}
	if res.AppendWindowsReused < 1 || res.AppendWindowsComputed < 1 {
		return fmt.Errorf("serve: append recomputed %d and reused %d windows — incremental invalidation regressed",
			res.AppendWindowsComputed, res.AppendWindowsReused)
	}
	if res.AppendWindowsComputed >= res.AppendWindowsTotal {
		return fmt.Errorf("serve: append recomputed all %d windows — nothing was reused", res.AppendWindowsTotal)
	}
	return nil
}

// checkOutOfCore enforces the streaming pipeline's acceptance criteria:
// the out-of-core report must be byte-identical to the resident one,
// and peak memory must sit at the chunk-window scale — far below the
// resident path (which holds every table) and below an absolute ceiling
// that does not grow with the trace (chunk size x a handful of cursors,
// plus aggregate state and GC slack).
func checkOutOfCore(res *experiments.OutOfCoreResult) error {
	if !res.StreamEqualsResident {
		return fmt.Errorf("outofcore: streaming report diverges from resident")
	}
	if res.PeakReduction < 3 {
		return fmt.Errorf("outofcore: peak memory reduction %.1fx below the 3x bar (resident %d B, stream %d B)",
			res.PeakReduction, res.ResidentPeakBytes, res.StreamPeakBytes)
	}
	if limit := uint64(64 << 20); res.StreamPeakBytes > limit {
		return fmt.Errorf("outofcore: streaming peak %d B exceeds the %d B chunk-window budget",
			res.StreamPeakBytes, limit)
	}
	return nil
}

// contentionResults is the machine-readable schema of -exp contention
// -json: the measured sweep, and optionally the baseline sweep it was
// compared against with per-thread-count speedups.
type contentionResults struct {
	Benchmark    string                      `json:"benchmark"`
	OpsPerThread int                         `json:"ops_per_thread"`
	Repeats      int                         `json:"repeats"`
	Rows         []experiments.ContentionRow `json:"rows"`
	// LiveRows repeats the sweep with a live streaming collector
	// subscribed to the trace; LiveOverhead is live/plain throughput per
	// thread count (1.0 = free, the acceptance bar is ≥ 0.9).
	LiveRows     []experiments.ContentionRow `json:"live_rows,omitempty"`
	LiveOverhead map[string]float64          `json:"live_overhead,omitempty"`
	Baseline     []experiments.ContentionRow `json:"baseline,omitempty"`
	Speedup      map[string]float64          `json:"speedup_vs_baseline,omitempty"`
}

// readContentionBaseline accepts a previous -json output file (the
// baseline is its "rows" field, so results chain run-over-run) or a bare
// JSON array of rows.
func readContentionBaseline(path string) ([]experiments.ContentionRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res contentionResults
	if err := json.Unmarshal(data, &res); err == nil && len(res.Rows) > 0 {
		return res.Rows, nil
	}
	var rows []experiments.ContentionRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return rows, nil
}

// contentionOverheads reports the live sweep's throughput as a fraction
// of the plain sweep's, per thread count.
func contentionOverheads(plain, live []experiments.ContentionRow) map[string]float64 {
	byThreads := make(map[int]float64, len(plain))
	for _, r := range plain {
		byThreads[r.Threads] = r.EventsPerSec
	}
	out := make(map[string]float64, len(live))
	for _, r := range live {
		if p := byThreads[r.Threads]; p > 0 {
			out[fmt.Sprintf("threads=%d", r.Threads)] = r.EventsPerSec / p
		}
	}
	return out
}

func contentionSpeedups(base, cur []experiments.ContentionRow) map[string]float64 {
	byThreads := make(map[int]float64, len(base))
	for _, b := range base {
		byThreads[b.Threads] = b.EventsPerSec
	}
	out := make(map[string]float64, len(cur))
	for _, c := range cur {
		if b := byThreads[c.Threads]; b > 0 {
			out[fmt.Sprintf("threads=%d", c.Threads)] = c.EventsPerSec / b
		}
	}
	return out
}

// mergeJSONKey sets key to v inside the JSON object stored at path,
// preserving every other top-level field (the contention results live in
// the same file). A missing or non-object file starts a fresh object.
func mergeJSONKey(path, key string, v any) error {
	obj := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &obj) // best-effort: garbage starts fresh
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	obj[key] = raw
	out, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// liveResultsWire is the api/v1 form of -exp live -json: run totals
// plus the final snapshot as the shared LiveSnapshot wire type.
type liveResultsWire struct {
	SchemaVersion int                 `json:"schema_version"`
	DurationNs    int64               `json:"duration_ns"`
	Ticks         int                 `json:"ticks"`
	EventsSeen    int64               `json:"events_seen"`
	Final         *apiv1.LiveSnapshot `json:"final"`
}

// writeWireJSON writes an api/v1 document in the canonical
// serialisation.
func writeWireJSON(path string, v any) error {
	data, err := apiv1.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
