package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/serve"
)

// serveBench drives the analysis daemon in process over loopback. Set-up
// uploads seeded traces, half stream-sorted (reported through the
// windowed fold) and half not (the monolithic fallback). The measured
// phase is a closed loop of read-only requests over those traces, which
// prices the daemon's throughput, then an open loop of seeded Poisson
// arrivals at a fixed rate: mostly report reads, with stats, lint and
// snapshot reads, appends that keep sorted traces sorted, and uploads
// of new traces, each write followed by a report of its trace. The
// artifact cache, the tail-window refold, upload decoding and the
// daemon's resident memory do the work.
type serveBench struct {
	e       *env
	ts      *httptest.Server
	client  *http.Client
	workers int
	traces  []*servedTrace
	plan    [][]request // each worker's requests, in due order
	openFor time.Duration
}

// servedTrace is one trace the daemon holds. Its events come from a
// generator seeded with seed — calls top-level calls, then each appended
// delta in order — so the final check regenerates the client-side mirror
// instead of holding it through the run. Only the worker that owns the
// trace updates landed and appended.
type servedTrace struct {
	id       string
	seed     uint64
	calls    int
	sorted   bool
	landed   bool // the daemon accepted the upload
	appended int  // deltas the daemon accepted
}

// mirror regenerates the trace as the daemon should hold it.
func (t *servedTrace) mirror(deltaCalls int) (*events.Trace, error) {
	g := newTraceGen(t.seed)
	tr, err := g.base(t.calls, t.sorted)
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.appended; i++ {
		d, err := g.delta(deltaCalls, t.sorted)
		if err != nil {
			return nil, err
		}
		appendTo(tr, d)
	}
	return tr, nil
}

type reqKind int

const (
	kindReport reqKind = iota
	kindStats
	kindLint
	kindSnapshot
	kindAppend
	kindUpload
)

var kindNames = [...]string{"report", "stats", "lint", "snapshot", "append", "upload"}

// serveMix is how many of every 100 open-loop requests are of each kind.
var serveMix = [...]int{kindReport: 70, kindStats: 10, kindLint: 5, kindSnapshot: 5, kindAppend: 6, kindUpload: 4}

// request is one scheduled open-loop request; appends and uploads carry
// their encoded body.
type request struct {
	due   time.Duration
	kind  reqKind
	trace int
	body  []byte
}

func newServeBench(e *env) (bench, error) {
	sz := e.cfg.size
	b := &serveBench{e: e, workers: min(2, runtime.NumCPU())}
	b.ts = httptest.NewServer(serve.New(serve.Options{}).Handler())
	// Every trace belongs to one worker, and each worker has one
	// connection, so a trace's requests reach the daemon in schedule
	// order and an append never overtakes the one before it.
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.workers, MaxIdleConnsPerHost: b.workers}}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()

	r := newRNG(e.cfg.seed)
	// gens continue each trace's generator past its base, producing its
	// deltas in the order the schedule appends them.
	var gens []*traceGen
	newTrace := func(calls int) ([]byte, error) {
		i := len(b.traces)
		t := &servedTrace{id: fmt.Sprintf("t%03d", i), seed: r.next(), calls: calls, sorted: i%2 == 0}
		g := newTraceGen(t.seed)
		tr, err := g.base(calls, t.sorted)
		if err != nil {
			return nil, err
		}
		b.traces = append(b.traces, t)
		gens = append(gens, g)
		return encode(tr)
	}
	for i := 0; i < sz.serveTraces; i++ {
		body, err := newTrace(sz.serveCalls)
		if err != nil {
			return nil, err
		}
		id := b.traces[i].id
		if err := b.expect(http.StatusCreated, "POST", "/v1/traces?id="+id, body); err != nil {
			return nil, err
		}
		if err := b.expect(http.StatusOK, "GET", "/v1/traces/"+id+"/report", nil); err != nil {
			return nil, err
		}
		b.traces[i].landed = true
	}

	// The closed loop gets 40% of the budget and the open loop the rest.
	// Arrivals are Poisson; the kinds come in blocks of 100, each a
	// seeded shuffle of the mix, so every run sends the same proportions.
	// Appends alternate between sorted and unsorted traces, and uploads
	// alternate too, so both sides of the fold-versus-monolithic choice
	// take the same share of the writes.
	b.openFor = e.cfg.budget * 6 / 10
	b.plan = make([][]request, b.workers)
	var deck []reqKind
	for kind, n := range serveMix {
		for i := 0; i < n; i++ {
			deck = append(deck, reqKind(kind))
		}
	}
	appends := 0
	for n, due := 0, time.Duration(0); ; n++ {
		due += time.Duration(-math.Log(1-r.float()) / sz.serveRate * float64(time.Second))
		if due >= b.openFor {
			break
		}
		if n%len(deck) == 0 {
			for i := len(deck) - 1; i > 0; i-- {
				j := r.intn(i + 1)
				deck[i], deck[j] = deck[j], deck[i]
			}
		}
		rq := request{due: due, kind: deck[n%len(deck)], trace: r.intn(len(b.traces))}
		var err error
		switch rq.kind {
		case kindAppend:
			parity := appends % 2
			appends++
			rq.trace = parity + 2*r.intn((len(b.traces)+1-parity)/2)
			var d *events.Trace
			if d, err = gens[rq.trace].delta(sz.serveDelta, b.traces[rq.trace].sorted); err == nil {
				rq.body, err = encode(d)
			}
		case kindUpload:
			rq.trace = len(b.traces)
			rq.body, err = newTrace(sz.serveUpload)
		}
		if err != nil {
			return nil, err
		}
		w := rq.trace % b.workers
		b.plan[w] = append(b.plan[w], rq)
	}
	ok = true
	return b, nil
}

func (b *serveBench) close() {
	b.ts.Close()
	b.client.CloseIdleConnections()
}

// do sends one request to the daemon and reads the whole response.
func (b *serveBench) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.ts.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// expect sends a set-up request that must answer with status want.
func (b *serveBench) expect(want int, method, path string, body []byte) error {
	status, _, raw, err := b.do(method, path, body)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, raw)
	}
	return nil
}

func (b *serveBench) path(rq request) (method, path string) {
	id := b.traces[rq.trace].id
	switch rq.kind {
	case kindAppend:
		return "POST", "/v1/traces/" + id + "/append"
	case kindUpload:
		return "POST", "/v1/traces?id=" + id
	default:
		return "GET", "/v1/traces/" + id + "/" + kindNames[rq.kind]
	}
}

// worker is one load-generating connection's client. Workers share no
// state: each records into its own result, merged when a phase ends.
type worker struct {
	b   *serveBench
	id  int
	seq int // operations sent, for span request ids and trace sampling
	res *result

	late                         []float64 // generator lateness per scheduled request, ms
	followups, unsortedFollowups int
	windowsComputed              int
	windowsReused                int
	closedDone                   int
}

// open sends the worker's scheduled requests, each at its due time or as
// soon as the previous one returns, and times each from its due time, so
// a stall is charged to every request queued behind it.
func (w *worker) open(start time.Time) {
	free := start
	for _, rq := range w.b.plan[w.id] {
		due := start.Add(rq.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		w.late = append(w.late, ms(sent.Sub(ready)))

		method, path := w.b.path(rq)
		status, _, raw := w.send(due, "serve."+kindNames[rq.kind], method, path, rq.body)
		w.res.add("serve_"+kindNames[rq.kind]+"_ms", "ms", ms(time.Since(sent)))
		w.res.check(status/100 == 2, "%s %s: status %d: %.200s", method, path, status, raw)

		if status/100 == 2 && (rq.kind == kindAppend || rq.kind == kindUpload) {
			t := w.b.traces[rq.trace]
			if rq.kind == kindUpload {
				t.landed = true
			} else {
				t.appended++
			}
			w.followUp(t)
		}
		free = time.Now()
	}
}

// send issues one request as an operation rooted at due.
func (w *worker) send(due time.Time, span, method, path string, body []byte) (int, http.Header, []byte) {
	e := w.b.e
	traced := e.traced(w.seq)
	op := e.tr.rootAt("bench.op", int64(w.id)<<32|int64(w.seq), traced, due)
	w.seq++
	sp := op.child(span)
	status, hdr, raw, err := w.b.do(method, path, body)
	sp.end()
	w.res.addOp(op.end(), e.cfg.trace, traced)
	if err != nil {
		status, raw = 0, []byte(err.Error())
	}
	return status, hdr, raw
}

// followUp reports a trace right after a write landed on it: the cold
// report that the append's tail refold or the upload's first analysis
// pays for.
func (w *worker) followUp(t *servedTrace) {
	sent := time.Now()
	path := "/v1/traces/" + t.id + "/report"
	status, hdr, raw := w.send(sent, "serve.report_after_write", "GET", path, nil)
	w.res.check(status == http.StatusOK, "GET %s: status %d: %.200s", path, status, raw)
	d := ms(time.Since(sent))
	w.res.add("serve_cold_report_ms", "ms", d)
	w.followups++
	if !t.sorted {
		w.unsortedFollowups++
		w.res.add("serve_cold_unsorted_ms", "ms", d)
		return
	}
	w.res.add("serve_cold_sorted_ms", "ms", d)
	computed, _ := strconv.Atoi(hdr.Get("Sgxperf-Windows-Computed"))
	reused, _ := strconv.Atoi(hdr.Get("Sgxperf-Windows-Reused"))
	w.windowsComputed += computed
	w.windowsReused += reused
}

// closed sends read-only requests over the set-up traces back to back
// until deadline.
func (w *worker) closed(deadline time.Time) {
	r := newRNG(w.b.e.cfg.seed ^ uint64(0xc105ed+w.id))
	for time.Now().Before(deadline) {
		rq := request{trace: r.intn(w.b.e.cfg.size.serveTraces), kind: kindReport}
		switch r.intn(10) {
		case 8:
			rq.kind = kindStats
		case 9:
			rq.kind = kindSnapshot
		}
		method, path := w.b.path(rq)
		status, _, raw, err := w.b.do(method, path, nil)
		w.res.check(err == nil && status == http.StatusOK, "%s %s: status %d %v: %.200s", method, path, status, err, raw)
		w.closedDone++
	}
}

// run runs phase on every worker at once and waits for all of them.
func (b *serveBench) run(workers []*worker, phase func(*worker)) {
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			phase(w)
		}(w)
	}
	wg.Wait()
}

func (b *serveBench) measure(budget time.Duration) error {
	e := b.e
	workers := make([]*worker, b.workers)
	for i := range workers {
		workers[i] = &worker{b: b, id: i, res: newResult()}
	}

	closedStart := time.Now()
	deadline := closedStart.Add(budget - b.openFor)
	b.run(workers, func(w *worker) { w.closed(deadline) })
	closedWall := time.Since(closedStart)

	hp := startHeapPeak()
	start := time.Now()
	b.run(workers, func(w *worker) { w.open(start) })
	e.res.add("peak_heap_mb", "MB", hp.finish())

	var late []float64
	var followups, unsorted, computed, reused, closedDone int
	for _, w := range workers {
		e.res.merge(w.res)
		late = append(late, w.late...)
		followups += w.followups
		unsorted += w.unsortedFollowups
		computed += w.windowsComputed
		reused += w.windowsReused
		closedDone += w.closedDone
	}
	e.res.add("serve_p99_ms", "ms", quantile(e.res.series["op_ms"].samples(), 0.99))
	e.res.add("gen_late_p99_ms", "ms", quantile(late, 0.99))
	e.res.add("throughput_per_s", "1/s", float64(closedDone)/closedWall.Seconds())

	var m apiv1.ServerMetrics
	status, _, raw, err := b.do("GET", "/v1/metrics", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /v1/metrics: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("GET /v1/metrics: %w", err)
	}
	e.res.add("daemon_peak_heap_mb", "MB", float64(m.Memory.PeakHeapAllocBytes)/1e6)

	l := e.res.layer
	if lookups := m.Cache.Hits + m.Cache.Misses; lookups > 0 {
		l["serve.cache_hit_ratio"] = float64(m.Cache.Hits) / float64(lookups)
	}
	l["serve.cache_evictions"] = float64(m.Cache.Evictions)
	l["serve.cache_coalesced"] = float64(m.Cache.Coalesced)
	l["serve.cache_mb"] = float64(m.Cache.Bytes) / 1e6
	l["serve.resident_traces"] = float64(m.Traces)
	if computed+reused > 0 {
		l["serve.windows_reused_frac"] = float64(reused) / float64(computed+reused)
	}
	if followups > 0 {
		l["serve.unsorted_frac"] = float64(unsorted) / float64(followups)
		l["analyzer.sorted_frac"] = 1 - l["serve.unsorted_frac"]
	}
	if len(late) > 0 {
		n := 0
		for _, x := range late {
			if x > 1 {
				n++
			}
		}
		l["serve.late_frac"] = float64(n) / float64(len(late))
	}
	return b.checkMirrors()
}

// checkMirrors compares every trace's served report with the offline
// report of its client-side mirror.
func (b *serveBench) checkMirrors() error {
	for _, t := range b.traces {
		if !t.landed {
			continue // its upload failed, which is already counted
		}
		mirror, err := t.mirror(b.e.cfg.size.serveDelta)
		if err != nil {
			return err
		}
		a, err := analyzer.New(mirror, analyzer.Options{})
		if err != nil {
			return err
		}
		want, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
		if err != nil {
			return err
		}
		status, _, got, err := b.do("GET", "/v1/traces/"+t.id+"/report", nil)
		if err != nil {
			return err
		}
		b.e.res.check(status == http.StatusOK && bytes.Equal(got, want),
			"serve: trace %s: served report (status %d) differs from the offline report of its mirror", t.id, status)
	}
	return nil
}
