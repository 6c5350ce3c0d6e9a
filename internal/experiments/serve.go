package experiments

// The always-on service experiment: boot sgx-perf-serve's handler in
// process, register many concurrent analysis sessions, and measure what
// the daemon adds over the offline pipeline — cold versus warm report
// latency through the content-addressed artifact cache, sustained
// concurrent-session throughput, and how much of the windowed
// statistics an append invalidates. Wall-clock numbers for the tool
// itself, like the analyze experiment.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/serve"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// ServeSessionRow is one registered session's report latency, cold
// (first request, analysis runs) versus warm (artifact cache hit).
type ServeSessionRow struct {
	ID      string        `json:"id"`
	Ops     int           `json:"ops"`
	Events  int           `json:"events"`
	Cold    time.Duration `json:"cold_report_wall_ns"`
	Warm    time.Duration `json:"warm_report_wall_ns"`
	Speedup float64       `json:"warm_speedup"`
}

// ServeResult is the machine-readable output of the serve experiment.
type ServeResult struct {
	Sessions int               `json:"sessions"`
	Rows     []ServeSessionRow `json:"rows"`
	// ServedEqualsOffline records that every session's served report was
	// byte-for-byte the offline `sgx-perf-analyze -json` document and
	// DeepEqual after the wire round-trip — the run is invalid if false.
	ServedEqualsOffline bool          `json:"served_equals_offline"`
	MedianCold          time.Duration `json:"median_cold_wall_ns"`
	MedianWarm          time.Duration `json:"median_warm_wall_ns"`
	WarmSpeedup         float64       `json:"warm_speedup"`
	// The throughput phase: every session hammered concurrently with
	// warm report requests.
	ThroughputRequests int           `json:"throughput_requests"`
	ThroughputWall     time.Duration `json:"throughput_wall_ns"`
	RequestsPerSec     float64       `json:"requests_per_sec"`
	// The append phase on one session: window counts from the stats
	// endpoint before and after appending a delta. Reused > 0 proves the
	// append refolded only the tail windows of the report.
	StatsWindowsTotal     int `json:"stats_windows_total"`
	AppendWindowsTotal    int `json:"append_windows_total"`
	AppendWindowsComputed int `json:"append_windows_computed"`
	AppendWindowsReused   int `json:"append_windows_reused"`

	Cache          apiv1.CacheMetrics `json:"cache"`
	ServerRequests uint64             `json:"server_requests"`
}

// deltaAnalysisTrace builds a small append-only delta: nOps extra
// ecalls with IDs and timestamps beyond anything SynthAnalysisTrace
// generates, so appending them to a synthetic base is well-formed.
func deltaAnalysisTrace(nOps int) (*events.Trace, error) {
	tr, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	rng := synthRNG(0xde17a)
	names := []string{"ecall_put", "ecall_get", "ecall_del", "ecall_tick"}
	rows := make([]events.CallEvent, 0, nOps)
	clock := int64(1_000_000_000)
	for i := 0; i < nOps; i++ {
		dur := int64(100 + rng.intn(3000))
		rows = append(rows, events.CallEvent{
			ID: events.EventID(10_000_000 + i), Kind: events.KindEcall,
			Enclave: sgx.EnclaveID(1), Thread: sgx.ThreadID(i % 8),
			Name:  names[rng.intn(len(names))],
			Start: vtime.Cycles(clock), End: vtime.Cycles(clock + dur),
			Parent: events.NoEvent,
		})
		clock += dur + int64(100+rng.intn(2000))
	}
	tr.Ecalls.BatchInsert(rows)
	return tr, nil
}

// serveGET fetches an api/v1 document and decodes it into out (pass nil
// to keep only the raw bytes).
func serveGET(client *http.Client, url string, out any) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return raw, nil
}

// RunServeBench measures the always-on service end to end: sessions
// concurrent traces (default 8) of roughly nOps calls each (default
// 6000, varied per session), reqs warm report requests per session in
// the throughput phase (default 200). ≤ 0 selects the defaults.
func RunServeBench(sessions, nOps, reqs int) (*ServeResult, error) {
	if sessions <= 0 {
		sessions = 8
	}
	if nOps <= 0 {
		nOps = 6000
	}
	if reqs <= 0 {
		reqs = 200
	}

	s := serve.New(serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	res := &ServeResult{Sessions: sessions}

	// Register one trace per session, each a different size so every
	// session has a distinct content key and its own cached artifacts.
	// Traces are stream-sorted, as sgx-perf-log saves them, so reports
	// and stats come from the windowed fold.
	traces := make([]*events.Trace, sessions)
	ids := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		ops := nOps + i*nOps/10
		tr, err := SynthAnalysisTrace(ops)
		if err != nil {
			return nil, err
		}
		events.StreamSort(tr)
		traces[i] = tr
		ids[i] = fmt.Sprintf("s%02d", i)
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			return nil, err
		}
		resp, err := client.Post(ts.URL+"/v1/traces?id="+ids[i], "application/octet-stream", &buf)
		if err != nil {
			return nil, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("upload %s: status %d: %s", ids[i], resp.StatusCode, body)
		}
		res.Rows = append(res.Rows, ServeSessionRow{ID: ids[i], Ops: ops, Events: traceEvents(tr)})
	}

	// Cold/warm latency and the served-versus-offline equality check,
	// session by session. The cold request runs the analysis; the warm
	// ones only hit the artifact cache, so the gap is what the cache
	// buys. Warm is the median of three requests.
	res.ServedEqualsOffline = true
	for i := range res.Rows {
		url := ts.URL + "/v1/traces/" + ids[i] + "/report"
		start := time.Now()
		served, err := serveGET(client, url, nil)
		if err != nil {
			return nil, err
		}
		res.Rows[i].Cold = time.Since(start)

		warm := make([]time.Duration, 0, 3)
		for rep := 0; rep < 3; rep++ {
			start = time.Now()
			if _, err := serveGET(client, url, nil); err != nil {
				return nil, err
			}
			warm = append(warm, time.Since(start))
		}
		res.Rows[i].Warm = medianWall(warm)
		res.Rows[i].Speedup = float64(res.Rows[i].Cold) / float64(res.Rows[i].Warm)

		// Offline reference: the same bytes sgx-perf-analyze -json prints.
		a, err := analyzer.New(traces[i], analyzer.Options{})
		if err != nil {
			return nil, err
		}
		offline, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
		if err != nil {
			return nil, err
		}
		var servedDoc, offlineDoc apiv1.Report
		if err := json.Unmarshal(served, &servedDoc); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(offline, &offlineDoc); err != nil {
			return nil, err
		}
		if !bytes.Equal(served, offline) || !reflect.DeepEqual(&servedDoc, &offlineDoc) {
			res.ServedEqualsOffline = false
			return nil, fmt.Errorf("serve bench: session %s served report diverges from the offline analyser", ids[i])
		}
	}
	colds := make([]time.Duration, 0, sessions)
	warms := make([]time.Duration, 0, sessions)
	for _, r := range res.Rows {
		colds = append(colds, r.Cold)
		warms = append(warms, r.Warm)
	}
	res.MedianCold = medianWall(colds)
	res.MedianWarm = medianWall(warms)
	res.WarmSpeedup = float64(res.MedianCold) / float64(res.MedianWarm)

	// Sustained concurrent-session throughput: one worker per session,
	// each issuing reqs warm report requests against its own trace.
	var errOnce atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			url := ts.URL + "/v1/traces/" + id + "/report"
			for r := 0; r < reqs; r++ {
				if _, err := serveGET(client, url, nil); err != nil {
					errOnce.CompareAndSwap(nil, err)
					return
				}
			}
		}(ids[i])
	}
	wg.Wait()
	res.ThroughputWall = time.Since(start)
	if err, _ := errOnce.Load().(error); err != nil {
		return nil, fmt.Errorf("serve bench: throughput phase: %w", err)
	}
	res.ThroughputRequests = sessions * reqs
	res.RequestsPerSec = float64(res.ThroughputRequests) / res.ThroughputWall.Seconds()

	// Append phase on session 0: warm the stats (the windowed report),
	// append a delta, and re-request — only the tail windows may
	// recompute.
	statsURL := ts.URL + "/v1/traces/" + ids[0] + "/stats"
	var cold apiv1.StatsReport
	if _, err := serveGET(client, statsURL, &cold); err != nil {
		return nil, err
	}
	res.StatsWindowsTotal = cold.WindowsTotal

	delta, err := deltaAnalysisTrace(100)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := delta.Save(&buf); err != nil {
		return nil, err
	}
	resp, err := client.Post(ts.URL+"/v1/traces/"+ids[0]+"/append", "application/octet-stream", &buf)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("append: status %d: %s", resp.StatusCode, body)
	}
	var after apiv1.StatsReport
	if _, err := serveGET(client, statsURL, &after); err != nil {
		return nil, err
	}
	res.AppendWindowsTotal = after.WindowsTotal
	res.AppendWindowsComputed = after.WindowsComputed
	res.AppendWindowsReused = after.WindowsReused

	var metrics apiv1.ServerMetrics
	if _, err := serveGET(client, ts.URL+"/v1/metrics", &metrics); err != nil {
		return nil, err
	}
	res.Cache = metrics.Cache
	res.ServerRequests = metrics.Requests
	return res, nil
}

// RenderServe formats the result as the bench tool's report text.
func RenderServe(res *ServeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Always-on service (%d concurrent sessions)\n", res.Sessions)
	fmt.Fprintf(&b, "  %-5s %7s %8s %12s %12s %8s\n", "id", "ops", "events", "cold", "warm", "speedup")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "  %-5s %7d %8d %12v %12v %7.1fx\n",
			r.ID, r.Ops, r.Events, r.Cold.Round(time.Microsecond), r.Warm.Round(time.Microsecond), r.Speedup)
	}
	fmt.Fprintf(&b, "  median cold %v, warm %v: cache speedup %.1fx (served == offline: %v)\n",
		res.MedianCold.Round(time.Microsecond), res.MedianWarm.Round(time.Microsecond),
		res.WarmSpeedup, res.ServedEqualsOffline)
	fmt.Fprintf(&b, "  throughput: %d requests over %d sessions in %v = %.0f req/s\n",
		res.ThroughputRequests, res.Sessions, res.ThroughputWall.Round(time.Millisecond), res.RequestsPerSec)
	fmt.Fprintf(&b, "  append invalidation: %d/%d windows recomputed, %d reused\n",
		res.AppendWindowsComputed, res.AppendWindowsTotal, res.AppendWindowsReused)
	fmt.Fprintf(&b, "  cache: %d hits, %d misses, %d coalesced, %d entries (%d requests served)\n",
		res.Cache.Hits, res.Cache.Misses, res.Cache.Coalesced, res.Cache.Entries, res.ServerRequests)
	return b.String()
}
