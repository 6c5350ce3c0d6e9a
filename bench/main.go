// Command bench is the repository benchmark: it drives four workloads
// through the public functions of the toolchain's layers — the logger,
// the live collector, the event store, the analyser, the api/v1 wire
// form, the static and source lints and the analysis daemon — and
// prints end-to-end metrics (tracing off) or per-layer metrics (tracing
// on) after checking every output it produced.
//
// Run it from the repository root, through the launcher that builds it:
//
//	bash bench/run.sh --workload keeper-postmortem --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A full results file — every
// sample of every metric with its median and quartiles, and the host
// the run measured — is written under the -work directory, next to the
// span file of a traced run. See README.md for the metrics and why each
// workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration // how long the measured phase runs
	trace    bool
	work     string // scratch directory for trace files, trees and results
	size     sizes
}

// sizes are the input sizes of every workload. The benchmark runs
// fullSizes; the smoke test runs tinySizes.
type sizes struct {
	keeperVirtual time.Duration // virtual run length of one SecureKeeper recording
	synthCalls    int           // top-level calls of the synthetic stream trace
	serveTraces   int           // traces uploaded during set-up
	serveCalls    int           // top-level calls of each set-up trace
	serveUpload   int           // calls of a trace uploaded during the run
	serveDelta    int           // calls of one append body
	serveRate     float64       // open-loop arrival rate, requests per second
	tree          treeSize      // generated lint tree
	minOps        int           // operations measured even when the budget is spent
	setupRounds   int           // set-ups timed per run; the last one is measured
}

var fullSizes = sizes{
	keeperVirtual: 3 * time.Second,
	synthCalls:    150_000,
	serveTraces:   12,
	serveCalls:    6000,
	serveUpload:   2000,
	serveDelta:    200,
	serveRate:     200,
	tree:          treeSize{pkgs: 8, fillers: 10},
	minOps:        5,
	setupRounds:   3,
}

var tinySizes = sizes{
	keeperVirtual: 100 * time.Millisecond,
	synthCalls:    2000,
	serveTraces:   4,
	serveCalls:    300,
	serveUpload:   200,
	serveDelta:    20,
	serveRate:     200,
	tree:          treeSize{pkgs: 1, fillers: 2},
	minOps:        2,
	setupRounds:   1,
}

// workloads maps each workload name to its set-up. Set-up builds the
// inputs and warms the path once; it is timed as setup_s.
var workloads = map[string]func(e *env) (bench, error){
	"keeper-postmortem": newKeeperBench,
	"synth-stream":      newSynthBench,
	"serve-mixed":       newServeBench,
	"lint-tree":         newLintBench,
}

// bench is one workload after set-up.
type bench interface {
	// measure runs operations until the budget is spent (and at least
	// minOps of them), checking every output.
	measure(budget time.Duration) error
	// close releases what set-up acquired.
	close()
}

// env is what a workload shares with the rest of the benchmark: its
// configuration, the span recorder and the result it fills.
type env struct {
	cfg config
	tr  *tracer
	res *result
	dir string // the workload's private scratch directory
}

// traced reports whether operation i records spans: in a traced run
// every other operation does, and the untraced ones price the tracing.
func (e *env) traced(i int) bool { return e.cfg.trace && i%2 == 0 }

// opDone records operation i's latency.
func (e *env) opDone(i int, d time.Duration) { e.res.addOp(d, e.cfg.trace, e.traced(i)) }

// result collects one run's samples, counters and failed checks.
type result struct {
	attempted int
	failed    int
	problems  []string
	series    map[string]*series
	layer     map[string]float64 // per-layer counters set by the workload
	alloc     allocCounter       // allocations over the measured phase
	ops       int
}

func newResult() *result {
	return &result{series: make(map[string]*series), layer: make(map[string]float64)}
}

func (r *result) add(name, unit string, v float64) {
	s := r.series[name]
	if s == nil {
		s = &series{Unit: unit}
		r.series[name] = s
	}
	s.Samples = append(s.Samples, v)
}

// addOp records one measured operation's latency. A traced run also
// files it as traced or untraced, which prices the tracing.
func (r *result) addOp(d time.Duration, trace, traced bool) {
	r.add("op_ms", "ms", ms(d))
	switch {
	case traced:
		r.add("op_traced_ms", "ms", ms(d))
	case trace:
		r.add("op_untraced_ms", "ms", ms(d))
	}
}

// merge adds o's samples, checks and problems to r.
func (r *result) merge(o *result) {
	for name, s := range o.series {
		for _, v := range s.Samples {
			r.add(name, s.Unit, v)
		}
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// check counts one output check and records it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) median(name string) float64 {
	if s := r.series[name]; s != nil {
		return quantile(s.Samples, 0.5)
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 20, "length of the measured phase in seconds")
		trace    = fs.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
		work     = fs.String("work", ".bench_build", "directory for scratch files, results and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		work:     *work,
		size:     fullSizes,
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := out.report(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !out.correct() {
		for _, p := range out.res.problems {
			fmt.Fprintln(stderr, "bench: check failed:", p)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is a finished run.
type outcome struct {
	res     *result
	tr      *tracer
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) correct() bool { return o.res.failed == 0 && o.res.attempted > 0 }

// execute sets the workload up setupRounds times, timing each, measures
// on the last set-up, and derives the metrics.
func execute(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &env{cfg: cfg, tr: newTracer(), res: newResult(), dir: dir}
	var b bench
	for round := 0; round < cfg.size.setupRounds; round++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		b, err = workloads[cfg.workload](e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		e.res.add("setup_s", "s", time.Since(start).Seconds())
	}
	defer b.close()

	before := readAlloc()
	if err := b.measure(cfg.budget); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	after := readAlloc()
	e.res.alloc = allocCounter{bytes: after.bytes - before.bytes, gcs: after.gcs - before.gcs}
	e.res.ops = len(e.res.series["op_ms"].samples())

	o := &outcome{res: e.res, tr: e.tr}
	if cfg.trace {
		o.metrics = layerMetrics(e.res, e.tr)
	} else {
		o.metrics = endToEndMetrics(e.res)
	}
	return o, nil
}

func (s *series) samples() []float64 {
	if s == nil {
		return nil
	}
	return s.Samples
}

// endToEndMetrics are the metrics of an untraced run.
func endToEndMetrics(r *result) map[string]metric {
	return map[string]metric{
		"setup_s":          {r.median("setup_s"), "s"},
		"op_p50_ms":        {r.median("op_ms"), "ms"},
		"throughput_per_s": {r.median("throughput_per_s"), "1/s"},
		"peak_heap_mb":     {r.median("peak_heap_mb"), "MB"},
	}
}

// spanNames are every span the workloads record, each "<layer>.<stage>".
// A traced run reports each one's share of operation time, so the list
// is the same on every workload: a layer a workload does not call has a
// share of 0 there.
var spanNames = []string{
	"bench.op",
	"sim.setup", "logger.attach", "logger.record", "logger.flush",
	"evstore.save", "live.attach", "live.drain", "live.snapshot",
	"evstore.load", "analyzer.new", "analyzer.analyze",
	"evstore.open_stream", "analyzer.stream",
	"apiv1.marshal", "staticlint.hybrid",
	"serve.report", "serve.report_after_write", "serve.stats", "serve.lint",
	"serve.snapshot", "serve.append", "serve.upload",
	"lint.load", "lint.run", "staticlint.source", "lint.relint_load", "lint.relint_run",
}

// layerCounters are the per-layer counts and ratios a workload sets; a
// workload that does not reach the layer leaves them at 0.
var layerCounters = []metricDef{
	{"logger.events_per_op", "count"},
	{"logger.overhead_frac", "ratio"},
	{"evstore.bytes_per_event", "B/event"},
	{"evstore.chunks_per_op", "count"},
	{"evstore.decode_floor_frac", "ratio"},
	{"analyzer.events_per_op", "count"},
	{"analyzer.sorted_frac", "ratio"},
	{"analyzer.distinct_calls", "count"},
	{"apiv1.bytes_per_op", "B"},
	{"staticlint.findings_per_op", "count"},
	{"lint.files", "count"},
	{"lint.diagnostics", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.cache_coalesced", "count"},
	{"serve.cache_mb", "MB"},
	{"serve.resident_traces", "count"},
	{"serve.windows_reused_frac", "ratio"},
	{"serve.unsorted_frac", "ratio"},
	{"serve.late_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// analyzerNames is the lint suite in lint.Analyzers order: the lint
// tree plants one violation for each, and a traced lint-tree run reports
// each one's share of a one-at-a-time pass.
var analyzerNames = []string{
	"vclock", "hotpath", "lockorder", "heldacross", "atomicmix",
	"transamp", "doublefetch", "ptrescape", "secretflow", "edlflow",
}

// layerMetricDefs lists every per-layer metric, in BENCHMARK.json order.
func layerMetricDefs() []metricDef {
	defs := []metricDef{
		{"op.traced_mean_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"runtime.gc_per_op", "count"},
		{"runtime.alloc_mb_per_op", "MB"},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{n + ".share", "ratio"})
	}
	defs = append(defs, layerCounters...)
	for _, n := range analyzerNames {
		defs = append(defs, metricDef{"lint.analyzer." + n + ".share", "ratio"})
	}
	return defs
}

func layerMetrics(r *result, t *tracer) map[string]metric {
	self, roots, nRoots := t.selfTimes()
	out := make(map[string]metric)
	for _, d := range layerMetricDefs() {
		out[d.name] = metric{r.layer[d.name], d.unit}
	}
	if nRoots > 0 {
		out["op.traced_mean_ms"] = metric{ms(roots) / float64(nRoots), "ms"}
	}
	for _, n := range spanNames {
		if roots > 0 {
			out[n+".share"] = metric{float64(self[n]) / float64(roots), "ratio"}
		}
	}
	if untraced := r.median("op_untraced_ms"); untraced > 0 {
		out["trace.overhead_frac"] = metric{r.median("op_traced_ms")/untraced - 1, "ratio"}
	}
	if r.ops > 0 {
		out["runtime.gc_per_op"] = metric{float64(r.alloc.gcs) / float64(r.ops), "count"}
		out["runtime.alloc_mb_per_op"] = metric{float64(r.alloc.bytes) / 1e6 / float64(r.ops), "MB"}
	}
	return out
}

// report prints the human-readable table and the final JSON line, and
// writes the results file (and the span file of a traced run).
func (o *outcome) report(cfg config, w io.Writer) error {
	names := make([]string, 0, len(o.res.series))
	for n := range o.res.series {
		names = append(names, n)
	}
	sort.Strings(names)
	summaries := make(map[string]summary, len(names))
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d attempted, %d failed\n", cfg.workload, cfg.seed, cfg.trace, o.res.attempted, o.res.failed)
	fmt.Fprintf(w, "  %-34s %-8s %12s %12s %12s %6s\n", "series", "unit", "median", "p25", "p75", "n")
	for _, n := range names {
		s := o.res.series[n].summary()
		summaries[n] = s
		fmt.Fprintf(w, "  %-34s %-8s %12.4f %12.4f %12.4f %6d\n", n, s.Unit, s.Median, s.P25, s.P75, s.N)
	}
	mnames := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		mnames = append(mnames, n)
	}
	sort.Strings(mnames)
	fmt.Fprintln(w, "  metrics:")
	for _, n := range mnames {
		fmt.Fprintf(w, "    %-40s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}

	stem := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.trace))
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := struct {
		Host      hostInfo           `json:"host"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Problems  []string           `json:"problems,omitempty"`
		Series    map[string]summary `json:"series"`
		Metrics   map[string]metric  `json:"metrics"`
	}{hostOf(cfg), o.correct(), o.res.attempted, o.res.failed, o.res.problems, summaries, o.metrics}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), raw, 0o644); err != nil {
		return err
	}
	if cfg.trace {
		if err := o.tr.write(filepath.Join(dir, stem+".spans.json")); err != nil {
			return err
		}
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct(), o.res.attempted, o.res.failed, o.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostInfo is the setting every number was measured in.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GOARCH     string  `json:"goarch"`
	GOOS       string  `json:"goos"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func hostOf(cfg config) hostInfo {
	return hostInfo{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.budget.Seconds(), Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOARCH: runtime.GOARCH, GOOS: runtime.GOOS, GoVersion: runtime.Version(),
		Commit: commitOf(".git"),
	}
}

// commitOf reads the checked-out commit from a git directory, following
// a symbolic ref to its loose ref file; it returns the ref itself when
// that file is packed away, and "unknown" outside a git checkout.
func commitOf(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	target, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(target)))
	if err != nil {
		return ref
	}
	return strings.TrimSpace(string(id))
}
