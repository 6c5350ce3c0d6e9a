package sgxperf_test

// One benchmark per table and figure of the paper's evaluation. The
// simulation runs on virtual time, so the interesting outputs are the
// custom metrics (virtual-ns per operation, event counts, speedups) —
// wall-clock ns/op only measures the simulator itself.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or, with the paper's full experiment sizes, via cmd/sgx-perf-bench -full.

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgxperf"
	"sgxperf/internal/experiments"
	"sgxperf/internal/lint"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/staticlint"
	"sgxperf/internal/serve"
)

// BenchmarkSec231_TransitionCost regenerates the §2.3.1 measurement:
// enclave transition round trips under the three mitigation levels.
func BenchmarkSec231_TransitionCost(b *testing.B) {
	var rows []experiments.TransitionRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Transitions()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Measured.Nanoseconds()), "virtual-ns/"+r.Mitigation)
	}
}

// BenchmarkTable2_LoggerOverhead regenerates Table 2: the logger's
// per-ecall, per-ocall and per-AEX probe costs.
func BenchmarkTable2_LoggerOverhead(b *testing.B) {
	var res *experiments.Table2
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable2(experiments.Table2Options{Calls: 500, LongCalls: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.NativeEcall.Nanoseconds()), "native-ecall-ns")
	b.ReportMetric(float64(res.LoggedEcall.Nanoseconds()), "logged-ecall-ns")
	b.ReportMetric(float64(res.EcallOverhead.Nanoseconds()), "ecall-probe-ns")
	b.ReportMetric(float64(res.OcallOverhead.Nanoseconds()), "ocall-probe-ns")
	b.ReportMetric(float64(res.PerAEXCount.Nanoseconds()), "aex-count-ns")
	b.ReportMetric(float64(res.PerAEXTrace.Nanoseconds()), "aex-trace-ns")
	b.ReportMetric(res.MeanAEXs, "aex-per-long-ecall")
}

// BenchmarkFig5_TaLoSCallGraph regenerates the §5.2.1 TaLoS+nginx study:
// 1,000 HTTP GETs traced and analysed (scaled by -benchtime via b.N runs
// of 200 requests each).
func BenchmarkFig5_TaLoSCallGraph(b *testing.B) {
	var f *experiments.Fig5
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.RunFig5(200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.EcallEvents)/float64(f.Requests), "ecalls/request")
	b.ReportMetric(float64(f.OcallEvents)/float64(f.Requests), "ocalls/request")
	b.ReportMetric(float64(f.DistinctEcalls), "distinct-ecalls")
	b.ReportMetric(f.ShortEcallFrac*100, "short-ecall-%")
	b.ReportMetric(f.ShortOcallFrac*100, "short-ocall-%")
}

// BenchmarkFig6_SQLite regenerates the SQLite bars of Fig. 6 (native /
// enclavised / merged × three mitigation levels).
func BenchmarkFig6_SQLite(b *testing.B) {
	var rows []experiments.Fig6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunFig6SQLite(500)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Mitigation == "vanilla" {
			b.ReportMetric(r.Normalised, "norm-"+r.Variant)
		}
	}
}

// BenchmarkFig6_LibreSSL regenerates the LibreSSL bars of Fig. 6 and the
// §5.2.3 optimised-vs-enclave speedups.
func BenchmarkFig6_LibreSSL(b *testing.B) {
	var rows []experiments.Fig6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunFig6LibreSSL(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Mitigation == "vanilla" {
			b.ReportMetric(r.Normalised, "norm-"+r.Variant)
		}
	}
	sp := experiments.Speedups(rows, "enclave", "optimized")
	b.ReportMetric(sp["vanilla"], "speedup-vanilla")
	b.ReportMetric(sp["spectre"], "speedup-spectre")
	b.ReportMetric(sp["spectre+l1tf"], "speedup-l1tf")
}

// BenchmarkFig7_8_SecureKeeper regenerates the SecureKeeper histogram /
// scatter study and the §5.2.4 working-set numbers.
func BenchmarkFig7_8_SecureKeeper(b *testing.B) {
	var f *experiments.Fig78
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.RunFig78(300 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.EcallEvents)/f.Duration.Seconds(), "ecall-events/s")
	b.ReportMetric(float64(f.ClientMean.Nanoseconds()), "client-ecall-ns")
	b.ReportMetric(float64(f.ZKMean.Nanoseconds()), "zk-ecall-ns")
	b.ReportMetric(float64(f.StartupPages), "ws-startup-pages")
	b.ReportMetric(float64(f.SteadyPages), "ws-steady-pages")
	b.ReportMetric(float64(f.EnclavesFitEPC), "enclaves-fit-epc")
}

// BenchmarkWS_Glamdring regenerates the §5.2.3 working-set measurement
// (61 pages at start-up, 32 during the benchmark).
func BenchmarkWS_Glamdring(b *testing.B) {
	var ws *experiments.GlamdringWS
	var err error
	for i := 0; i < b.N; i++ {
		ws, err = experiments.RunGlamdringWorkingSet()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ws.StartupPages), "startup-pages")
	b.ReportMetric(float64(ws.SteadyPages), "steady-pages")
}

// BenchmarkAblation_HybridLock compares the SDK mutex against the hybrid
// spin-then-sleep lock under contention (§3.4).
func BenchmarkAblation_HybridLock(b *testing.B) {
	var rows []experiments.HybridLockRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunHybridLockAblation(4, 150)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.SyncOcalls), "sync-ocalls-"+r.Strategy)
	}
}

// BenchmarkAblation_Paging compares the §3.5 paging mitigation
// strategies when the working set exceeds the EPC.
func BenchmarkAblation_Paging(b *testing.B) {
	var rows []experiments.PagingRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunPagingAblation(256, 192, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Virtual.Microseconds()), "virtual-us-"+r.Strategy)
		b.ReportMetric(float64(r.PageIns), "page-ins-"+r.Strategy)
	}
}

// BenchmarkLoggerContention measures the recording pipeline's wall-clock
// throughput with N threads hammering short ecalls (§4.1: per-thread
// buffers keep the probe cost flat as threads are added). Unlike the
// virtual-time benchmarks above, events/s here is real wall-clock
// throughput of the sharded recorder itself.
func BenchmarkLoggerContention(b *testing.B) {
	for _, threads := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var row experiments.ContentionRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.RunLoggerContention(threads, 2000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.EventsPerSec, "events/s")
			b.ReportMetric(row.NsPerEvent, "ns/event")
		})
	}
}

// BenchmarkLoggerContentionLive repeats the contention sweep with a live
// streaming collector subscribed to the trace: the subscribers run on the
// recording hot path (under the table write lock) but only enqueue
// batches. Its events/s next to BenchmarkLoggerContention's is the tap's
// cost; nothing gates it.
func BenchmarkLoggerContentionLive(b *testing.B) {
	for _, threads := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var row experiments.ContentionRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.RunLoggerContentionLive(threads, 2000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.EventsPerSec, "events/s")
			b.ReportMetric(row.NsPerEvent, "ns/event")
		})
	}
}

// BenchmarkAblation_Switchless compares the paper's interface redesign
// against switchless calls (the SCONE/HotCalls/Eleos technique, §2.3/§6)
// on the Glamdring signing workload.
func BenchmarkAblation_Switchless(b *testing.B) {
	var rows []experiments.SwitchlessRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunSwitchlessAblation(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SignsPerSec, "signs/s-"+r.Variant)
	}
}

// BenchmarkAnalyze prices one Analyze — the fold over sorted copies of
// the trace's tables, report assembled — on a synthetic 10k-call trace.
// events/s is wall-clock post-processing throughput.
func BenchmarkAnalyze(b *testing.B) {
	trace, err := experiments.SynthAnalysisTrace(10000)
	if err != nil {
		b.Fatal(err)
	}
	a, err := sgxperf.NewAnalyzer(trace, sgxperf.AnalyzerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	nEvents := trace.Ecalls.Len() + trace.Ocalls.Len() + trace.Paging.Len() + trace.Syncs.Len()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		a.Analyze()
	}
	b.ReportMetric(float64(nEvents)*float64(b.N)/time.Since(start).Seconds(), "events/s")
}

// BenchmarkAnalyzeStream prices one AnalyzeStream — the fold fed chunk
// by chunk from a saved, stream-sorted SynthAnalysisTrace(100000) file,
// report assembled — so the fold's cost per report, its bytes and its
// allocations can be measured without the bench/ harness. events/s
// counts the ecall, ocall, paging and sync rows the report covers.
func BenchmarkAnalyzeStream(b *testing.B) {
	trace, err := experiments.SynthAnalysisTrace(100000)
	if err != nil {
		b.Fatal(err)
	}
	events.StreamSort(trace)
	path := filepath.Join(b.TempDir(), "trace.evc")
	if err := trace.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	nEvents := trace.Ecalls.Len() + trace.Ocalls.Len() + trace.Paging.Len() + trace.Syncs.Len()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		st, err := events.OpenStreamTrace(path)
		if err != nil {
			b.Fatal(err)
		}
		src, err := analyzer.NewStreamTraceSource(st)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := analyzer.AnalyzeStream(src, analyzer.Options{}); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
	b.ReportMetric(float64(nEvents)*float64(b.N)/time.Since(start).Seconds(), "events/s")
}

// BenchmarkCodecSaveLoad prices trace serialisation through the chunked
// columnar format; MB/s is against the encoded size.
func BenchmarkCodecSaveLoad(b *testing.B) {
	trace, err := experiments.SynthAnalysisTrace(10000)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Save(&buf); err != nil {
		b.Fatal(err)
	}
	mb := float64(buf.Len()) / 1e6
	b.Run("save", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := trace.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mb*float64(b.N)/time.Since(start).Seconds(), "MB/s")
		b.ReportMetric(float64(buf.Len()), "bytes")
	})
	b.Run("load", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			dst, err := events.NewTrace()
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mb*float64(b.N)/time.Since(start).Seconds(), "MB/s")
	})
}

// BenchmarkServeWarmReport prices one cached report read through the
// daemon's handler in process: a GET /v1/traces/{id}/report of a
// SynthAnalysisTrace(6000) whose report is already cached, served into
// an httptest.ResponseRecorder. Its B/op and allocs/op are the warm
// path's fixed cost — content key, cache lookup, headers, body write.
func BenchmarkServeWarmReport(b *testing.B) {
	trace, err := experiments.SynthAnalysisTrace(6000)
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := trace.Save(&body); err != nil {
		b.Fatal(err)
	}
	h := serve.New(serve.Options{}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces?id=warm", &body))
	if rec.Code != http.StatusCreated {
		b.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces/warm/report", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusOK {
		b.Fatalf("cold report: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := get(); rec.Code != http.StatusOK {
			b.Fatalf("warm report: status %d", rec.Code)
		}
	}
}

// BenchmarkLintRelint prices one lint round over a fresh copy of the
// sgx-perf-vet badrepo fixture: a cold vet pass (LoadTree and the ten
// analyzers), the staticlint source pass over the same root, an edit
// that plants one more held-across send, and a re-lint. Its B/op and
// allocs/op show what the later loads of one root reuse from the first.
func BenchmarkLintRelint(b *testing.B) {
	const edited = "internal/app/queue.go"
	plant := []byte(`
func (q *queue) pushAgain(v int) {
	q.mu.Lock()
	q.out <- v
	q.mu.Unlock()
}
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := filepath.Join(b.TempDir(), "badrepo")
		if err := copyTree(filepath.Join("cmd", "sgx-perf-vet", "testdata", "badrepo"), root); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		diags := vetPass(b, root)
		if _, err := staticlint.AnalyzeSource(root, nil, staticlint.Options{}); err != nil {
			b.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(root, edited), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			b.Fatal(err)
		}
		_, err = f.Write(plant)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		if rediags := vetPass(b, root); len(rediags) != len(diags)+1 {
			b.Fatalf("re-lint reported %d diagnostics, want %d", len(rediags), len(diags)+1)
		}
	}
}

// vetPass loads root and runs the full analyzer suite over it.
func vetPass(b *testing.B, root string) []lint.Diagnostic {
	b.Helper()
	tree, err := lint.LoadTree(root)
	if err != nil {
		b.Fatal(err)
	}
	diags, err := lint.RunTree(tree, lint.Analyzers())
	if err != nil {
		b.Fatal(err)
	}
	return diags
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
