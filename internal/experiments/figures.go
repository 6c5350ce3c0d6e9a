package experiments

import (
	"fmt"
	"strings"
	"time"

	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/perf/workingset"
	"sgxperf/internal/sgx"
	"sgxperf/internal/workloads"
	"sgxperf/internal/workloads/glamdring"
	"sgxperf/internal/workloads/keeper"
	"sgxperf/internal/workloads/minidb"
	"sgxperf/internal/workloads/talos"
)

// --- Figure 5: TaLoS call graph ------------------------------------------

// Fig5 is the TaLoS+nginx analysis of §5.2.1.
type Fig5 struct {
	Requests int
	Report   *analyzer.Report
	DOT      string
	// Totals and shape stats, compared in EXPERIMENTS.md against the
	// paper's 27,631 ecall / 28,969 ocall events, 61/10 distinct calls,
	// 60.78%/73.69% short fractions.
	EcallEvents, OcallEvents       int
	DistinctEcalls, DistinctOcalls int
	ShortEcallFrac, ShortOcallFrac float64
}

// RunFig5 serves the given number of HTTP GETs (paper: 1,000) through the
// TaLoS enclave under the logger and analyses the trace.
func RunFig5(requests int) (*Fig5, error) {
	if requests <= 0 {
		requests = 1000
	}
	h, err := host.New()
	if err != nil {
		return nil, err
	}
	l, err := logger.Attach(h, logger.Options{Workload: "talos-nginx"})
	if err != nil {
		return nil, err
	}
	ctx := h.NewContext("nginx")
	srv, err := talos.NewServer(h, ctx)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Run(ctx, workloads.Options{Ops: requests}); err != nil {
		return nil, err
	}
	a, err := analyzer.New(l.Trace(), analyzer.Options{})
	if err != nil {
		return nil, err
	}
	report := a.Analyze()
	out := &Fig5{
		Requests:    requests,
		Report:      report,
		DOT:         report.Graph.DOT(),
		EcallEvents: l.Trace().Ecalls.Len(),
		OcallEvents: l.Trace().Ocalls.Len(),
	}
	var shortE, totE, shortO, totO float64
	for _, s := range report.Stats {
		if s.Kind == events.KindEcall {
			out.DistinctEcalls++
			totE += float64(s.Count)
			shortE += s.FracBelow10us * float64(s.Count)
		} else {
			out.DistinctOcalls++
			totO += float64(s.Count)
			shortO += s.FracBelow10us * float64(s.Count)
		}
	}
	if totE > 0 {
		out.ShortEcallFrac = shortE / totE
	}
	if totO > 0 {
		out.ShortOcallFrac = shortO / totO
	}
	return out, nil
}

// Render summarises the Fig. 5 run.
func (f *Fig5) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 5 / §5.2.1: TaLoS + nginx, %d GET requests ==\n", f.Requests)
	fmt.Fprintf(&b, "ecall events:   %d across %d distinct calls (paper: 27,631 / 61)\n",
		f.EcallEvents, f.DistinctEcalls)
	fmt.Fprintf(&b, "ocall events:   %d across %d distinct calls (paper: 28,969 / 10)\n",
		f.OcallEvents, f.DistinctOcalls)
	fmt.Fprintf(&b, "short (<10µs):  %.2f%% of ecalls, %.2f%% of ocalls (paper: 60.78%% / 73.69%%)\n",
		f.ShortEcallFrac*100, f.ShortOcallFrac*100)
	fmt.Fprintf(&b, "findings:       %d (the OpenSSL interface is a poor enclave interface)\n",
		len(f.Report.Findings))
	b.WriteString("call graph: use the DOT field (square=ecall, ellipse=ocall, dashed=indirect)\n")
	return b.String()
}

// --- Figure 6: normalised SQLite and LibreSSL bars -----------------------

// Fig6Row is one bar group: a workload variant under one mitigation level.
type Fig6Row struct {
	Workload   string
	Mitigation string
	Variant    string
	Throughput float64
	// Normalised is relative to the same workload's native throughput
	// under the *vanilla* configuration, like the paper's Fig. 6.
	Normalised float64
}

// RunFig6SQLite regenerates the SQLite bars.
func RunFig6SQLite(inserts int) ([]Fig6Row, error) {
	if inserts <= 0 {
		inserts = 2000
	}
	var rows []Fig6Row
	var nativeBase float64
	for _, m := range []sgx.MitigationLevel{sgx.MitigationNone, sgx.MitigationSpectre, sgx.MitigationFull} {
		for _, v := range minidb.Variants() {
			if v == minidb.VariantNative && m != sgx.MitigationNone {
				continue // the native bar does not depend on microcode
			}
			h, err := host.New(host.WithMitigation(m))
			if err != nil {
				return nil, err
			}
			ctx := h.NewContext("driver")
			w, err := minidb.New(h, v, ctx)
			if err != nil {
				return nil, err
			}
			res, err := w.Run(ctx, workloads.Options{Ops: inserts})
			if err != nil {
				return nil, err
			}
			tp := res.Throughput()
			if v == minidb.VariantNative && m == sgx.MitigationNone {
				nativeBase = tp
			}
			rows = append(rows, Fig6Row{
				Workload:   "sqlite",
				Mitigation: m.String(),
				Variant:    string(v),
				Throughput: tp,
			})
		}
	}
	for i := range rows {
		rows[i].Normalised = rows[i].Throughput / nativeBase
	}
	return rows, nil
}

// RunFig6LibreSSL regenerates the LibreSSL (Glamdring) bars.
func RunFig6LibreSSL(signs int) ([]Fig6Row, error) {
	if signs <= 0 {
		signs = 5
	}
	var rows []Fig6Row
	var nativeBase float64
	for _, m := range []sgx.MitigationLevel{sgx.MitigationNone, sgx.MitigationSpectre, sgx.MitigationFull} {
		for _, v := range glamdring.Variants() {
			if v == glamdring.VariantNative && m != sgx.MitigationNone {
				continue
			}
			h, err := host.New(glamdring.RecommendedHostOptions(m)...)
			if err != nil {
				return nil, err
			}
			w, err := glamdring.New(h, v)
			if err != nil {
				return nil, err
			}
			ctx := h.NewContext("driver")
			res, err := w.Run(ctx, workloads.Options{Ops: signs})
			if err != nil {
				return nil, err
			}
			tp := res.Throughput()
			if v == glamdring.VariantNative && m == sgx.MitigationNone {
				nativeBase = tp
			}
			rows = append(rows, Fig6Row{
				Workload:   "libressl",
				Mitigation: m.String(),
				Variant:    string(v),
				Throughput: tp,
			})
		}
	}
	for i := range rows {
		rows[i].Normalised = rows[i].Throughput / nativeBase
	}
	return rows, nil
}

// RenderFig6 formats the bar data.
func RenderFig6(title string, rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 6: %s (normalised to vanilla native) ==\n", title)
	fmt.Fprintf(&b, "%-14s %-10s %12s %12s\n", "mitigation", "variant", "ops/s", "normalised")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-10s %12.1f %11.2fx\n", r.Mitigation, r.Variant, r.Throughput, r.Normalised)
	}
	return b.String()
}

// Speedups extracts the optimised-vs-enclave speedup per mitigation level
// (§5.2.3 reports 2.16× / 2.66× / 2.87× for LibreSSL).
func Speedups(rows []Fig6Row, enclaveVariant, optimisedVariant string) map[string]float64 {
	enclave := map[string]float64{}
	optimised := map[string]float64{}
	for _, r := range rows {
		switch r.Variant {
		case enclaveVariant:
			enclave[r.Mitigation] = r.Throughput
		case optimisedVariant:
			optimised[r.Mitigation] = r.Throughput
		}
	}
	out := map[string]float64{}
	for m, e := range enclave {
		if o, ok := optimised[m]; ok && e > 0 {
			out[m] = o / e
		}
	}
	return out
}

// --- Figures 7–8 + §5.2.4: SecureKeeper ----------------------------------

// Fig78 is the SecureKeeper analysis.
type Fig78 struct {
	Duration    time.Duration
	EcallEvents int
	OcallEvents int
	SyncEvents  int
	// ClientMean/ZKMean are the two ecalls' mean execution times.
	ClientMean time.Duration
	ZKMean     time.Duration
	// Histogram is Fig. 7 (client-handler execution times, 100 bins).
	Histogram []analyzer.HistogramBin
	// Scatter is Fig. 8 (execution time over application time).
	Scatter []analyzer.ScatterPoint
	// Working set (§5.2.4): 322 pages at start-up, 94 during execution.
	StartupPages int
	SteadyPages  int
	// EnclavesFitEPC estimates how many such enclaves run without paging
	// (paper: 249).
	EnclavesFitEPC int
	Report         *analyzer.Report
}

// RunFig78 collects the §5.2.4 artefacts in two runs, mirroring the
// paper's tooling split: the event logger traces a clean benchmark run
// (histogram, scatter, statistics), and the working-set estimator — which
// "heavily interferes with enclave execution" (§4) and would distort the
// durations — measures a separate, shorter run.
func RunFig78(duration time.Duration) (*Fig78, error) {
	if duration <= 0 {
		duration = 31 * time.Second
	}

	// Run 1: working-set estimation on its own host.
	wsDuration := duration
	if wsDuration > 500*time.Millisecond {
		wsDuration = 500 * time.Millisecond
	}
	hws, err := host.New()
	if err != nil {
		return nil, err
	}
	wsCtx := hws.NewContext("ws")
	wsW, err := keeper.New(hws, wsCtx)
	if err != nil {
		return nil, err
	}
	est := workingset.New(hws, wsW.Enclave())
	if err := est.Start(); err != nil {
		return nil, err
	}
	defer est.Stop()
	c, err := wsW.Connect(wsCtx, 999)
	if err != nil {
		return nil, err
	}
	if _, err := c.Do(wsCtx, keeper.Request{Op: keeper.OpCreate, Path: "/warm", Version: -1}); err != nil {
		return nil, err
	}
	startup := est.Count()
	est.Mark()
	if _, err := wsW.Run(keeper.RunOptions{Clients: 8, Duration: wsDuration}); err != nil {
		return nil, err
	}
	steady := est.Count()

	// Run 2: the logged benchmark, undisturbed.
	h, err := host.New()
	if err != nil {
		return nil, err
	}
	l, err := logger.Attach(h, logger.Options{Workload: "securekeeper"})
	if err != nil {
		return nil, err
	}
	ctx := h.NewContext("main")
	w, err := keeper.New(h, ctx)
	if err != nil {
		return nil, err
	}
	if _, err := w.Run(keeper.RunOptions{Clients: 8, Duration: duration}); err != nil {
		return nil, err
	}

	a, err := analyzer.New(l.Trace(), analyzer.Options{})
	if err != nil {
		return nil, err
	}
	report := a.Analyze()
	out := &Fig78{
		Duration:     duration,
		EcallEvents:  l.Trace().Ecalls.Len(),
		OcallEvents:  l.Trace().Ocalls.Len(),
		SyncEvents:   l.Trace().Syncs.Len(),
		Histogram:    a.Histogram(keeper.EcallFromClient, 100),
		Scatter:      a.Scatter(keeper.EcallFromClient),
		StartupPages: startup,
		SteadyPages:  steady,
		Report:       report,
	}
	if s, ok := report.StatsFor(keeper.EcallFromClient); ok {
		out.ClientMean = s.Mean
	}
	if s, ok := report.StatsFor(keeper.EcallFromZK); ok {
		out.ZKMean = s.Mean
	}
	if steady > 0 {
		out.EnclavesFitEPC = sgx.EPCUsablePages / (steady + 2)
	}
	return out, nil
}

// Render summarises the SecureKeeper artefacts.
func (f *Fig78) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figs. 7–8 / §5.2.4: SecureKeeper, %v under full load ==\n", f.Duration)
	fmt.Fprintf(&b, "events: %d ecalls, %d ocalls, %d sync (paper: 1.1M / 111 / 18 over 31s)\n",
		f.EcallEvents, f.OcallEvents, f.SyncEvents)
	fmt.Fprintf(&b, "ecall means: client %v, zookeeper %v (paper: ≈14µs / ≈18µs incl. transition)\n",
		f.ClientMean, f.ZKMean)
	fmt.Fprintf(&b, "working set: %d pages start-up, %d steady (paper: 322 / 94)\n",
		f.StartupPages, f.SteadyPages)
	fmt.Fprintf(&b, "EPC capacity: %d such enclaves fit without paging (paper: 249)\n", f.EnclavesFitEPC)
	fmt.Fprintf(&b, "findings: %d (paper: none — the interface is already narrow)\n",
		len(f.Report.Findings))
	// A crude textual histogram of Fig. 7.
	b.WriteString("\nFig. 7 histogram (execution time, 100 bins):\n")
	maxCount := 0
	for _, bin := range f.Histogram {
		if bin.Count > maxCount {
			maxCount = bin.Count
		}
	}
	for _, bin := range f.Histogram {
		if bin.Count == 0 {
			continue
		}
		bar := strings.Repeat("#", 1+bin.Count*50/max(1, maxCount))
		fmt.Fprintf(&b, "%9s–%-9s %6d %s\n",
			bin.Lo.Round(100*time.Nanosecond), bin.Hi.Round(100*time.Nanosecond), bin.Count, bar)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
