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
	"io"
	"os"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-bench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiments and prints their
// reports to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sgx-perf-bench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: all, transitions, table2, fig5, fig6-sqlite, fig6-libressl, fig78, ws-glamdring, ablation-lock, ablation-paging, ablation-switchless, switchless, live")
		requests = fs.Int("requests", 1000, "fig5: HTTP GET count")
		inserts  = fs.Int("inserts", 2000, "fig6-sqlite: insert count")
		signs    = fs.Int("signs", 5, "fig6-libressl: signatures per variant")
		duration = fs.Duration("duration", time.Second, "fig78/live: load duration (paper: 31s)")
		full     = fs.Bool("full", false, "use the paper's full experiment sizes (slower)")
		dotOut   = fs.String("dot", "", "fig5: also write the call graph to this DOT file")
		jsonOut  = fs.String("json", "", "switchless/live: merge machine-readable results into this file under the experiment's name")

		switchlessOps = fs.Int("switchless-ops", 400, "switchless: transition-bound calls per caller thread")
		liveView      = fs.Bool("live", false, "shorthand for -exp live: monitor the SecureKeeper run with streaming snapshots")
		interval      = fs.Duration("interval", 200*time.Millisecond, "live: wall-clock delay between streamed snapshots")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage text instead of returning
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
			fmt.Fprintln(out, experiments.RenderTransitions(rows))
		case "table2":
			t2, err := experiments.RunTable2(experiments.Table2Options{})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, t2.Render())
		case "fig5":
			f, err := experiments.RunFig5(*requests)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, f.Render())
			if *dotOut != "" {
				if err := os.WriteFile(*dotOut, []byte(f.DOT), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "call graph written to %s\n\n", *dotOut)
			}
		case "fig6-sqlite":
			rows, err := experiments.RunFig6SQLite(*inserts)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderFig6("SQLite inserts (paper: 1.00 / 0.57 / 0.76 vanilla bars)", rows))
		case "fig6-libressl":
			rows, err := experiments.RunFig6LibreSSL(*signs)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderFig6("LibreSSL signing (paper: 1.00 / 0.23 / 0.50 vanilla bars)", rows))
			speedups := experiments.Speedups(rows, "enclave", "optimized")
			fmt.Fprintf(out, "optimised/enclave speedups: vanilla %.2fx, spectre %.2fx, l1tf %.2fx (paper: 2.16 / 2.66 / 2.87)\n\n",
				speedups["vanilla"], speedups["spectre"], speedups["spectre+l1tf"])
		case "fig78":
			f, err := experiments.RunFig78(*duration)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, f.Render())
		case "ws-glamdring":
			ws, err := experiments.RunGlamdringWorkingSet()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, ws.Render())
		case "ablation-lock":
			rows, err := experiments.RunHybridLockAblation(0, 0)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderHybridLock(rows))
		case "ablation-paging":
			rows, err := experiments.RunPagingAblation(0, 0, 0)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderPaging(rows))
		case "ablation-switchless":
			rows, err := experiments.RunSwitchlessAblation(*signs)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderSwitchless(rows))
		case "switchless":
			res, err := experiments.RunSwitchlessLoop(0, *switchlessOps)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderSwitchlessLoop(res))
			if err := checkSwitchlessLoop(res); err != nil {
				return err
			}
			if *jsonOut != "" {
				if err := mergeJSONKey(*jsonOut, "switchless", res); err != nil {
					return err
				}
				fmt.Fprintf(out, "switchless results merged into %s\n\n", *jsonOut)
			}
		case "live":
			view, err := experiments.RunLive(*duration, *interval, func(t experiments.LiveTick) {
				fmt.Fprintf(out, "[t+%v] +%d call events\n%s\n",
					t.Elapsed.Round(time.Millisecond), t.NewCalls,
					experiments.RenderLiveSnapshot(t.Snapshot))
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderLiveRun(view))
			if *jsonOut != "" {
				if err := mergeJSONKey(*jsonOut, "live", liveResultsWire{
					SchemaVersion: apiv1.Version,
					DurationNs:    int64(view.Duration),
					Ticks:         view.Ticks,
					EventsSeen:    view.EventsSeen,
					Final:         apiv1.FromSnapshot(&view.Final),
				}); err != nil {
					return err
				}
				fmt.Fprintf(out, "live results merged into %s\n\n", *jsonOut)
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
		"ablation-switchless", "switchless", "live",
	} {
		start := time.Now()
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
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

// mergeJSONKey sets key to v inside the JSON object stored at path,
// preserving every other top-level field, so each experiment's -json
// result sits under its own name in one file. A missing or non-object
// file starts a fresh object.
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

// liveResultsWire is the "live" value of -exp live -json: run totals
// plus the final snapshot as the shared api/v1 LiveSnapshot wire type.
type liveResultsWire struct {
	SchemaVersion int                 `json:"schema_version"`
	DurationNs    int64               `json:"duration_ns"`
	Ticks         int                 `json:"ticks"`
	EventsSeen    int64               `json:"events_seen"`
	Final         *apiv1.LiveSnapshot `json:"final"`
}
