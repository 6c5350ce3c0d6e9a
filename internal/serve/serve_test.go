package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sgxperf"
	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/evstore"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
	"sgxperf/internal/workloads/leaky"
)

// --- synthetic trace helpers -------------------------------------------

type xorshift struct{ s uint64 }

func (r *xorshift) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
func (r *xorshift) intn(n int) int { return int(r.next() % uint64(n)) }

const testEDL = `enclave {
	trusted { public ecall_put(); public ecall_get(); };
	untrusted { ocall_write(); ocall_log(); };
};`

// synthEvents appends nOps worth of call events to tr, with event IDs
// starting at firstID. Returns the next free ID, so a second call
// produces an append-compatible delta.
func synthEvents(tr *events.Trace, nOps int, firstID int64, seed uint64) int64 {
	rng := &xorshift{s: seed}
	enames := []string{"ecall_put", "ecall_get"}
	onames := []string{"ocall_write", "ocall_log"}
	var ecalls, ocalls []events.CallEvent
	var aexs []events.AEXEvent
	id := firstID
	nextID := func() events.EventID { id++; return events.EventID(id) }
	clock := int64(firstID * 5000)
	for op := 0; op < nOps; op++ {
		clock += int64(500 + rng.intn(3000))
		dur := int64(200 + rng.intn(8000))
		eid := nextID()
		ecalls = append(ecalls, events.CallEvent{
			ID: eid, Kind: events.KindEcall, Enclave: 1,
			Thread: sgx.ThreadID(1 + op%3), CallID: op % 2,
			Name:  enames[op%2],
			Start: vtime.Cycles(clock), End: vtime.Cycles(clock + dur),
			Parent: events.NoEvent, AEXCount: rng.intn(2),
		})
		if op%3 == 0 {
			oid := nextID()
			at := clock + int64(50+rng.intn(100))
			odur := int64(100 + rng.intn(500))
			ocalls = append(ocalls, events.CallEvent{
				ID: oid, Kind: events.KindOcall, Enclave: 1,
				Thread: sgx.ThreadID(1 + op%3), Name: onames[op%2],
				Start: vtime.Cycles(at), End: vtime.Cycles(at + odur),
				Parent: eid,
			})
		}
		if op%7 == 0 {
			aexs = append(aexs, events.AEXEvent{
				ID: nextID(), Enclave: 1, Thread: sgx.ThreadID(1 + op%3),
				Time: vtime.Cycles(clock + dur/2), During: eid,
			})
		}
	}
	tr.Ecalls.BatchInsert(ecalls)
	tr.Ocalls.BatchInsert(ocalls)
	tr.AEXs.BatchInsert(aexs)
	return id
}

// synthTrace builds a deterministic trace with meta and an embedded
// EDL, nOps operations strong.
func synthTrace(t testing.TB, nOps int) *events.Trace {
	t.Helper()
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "serve-test", FrequencyHz: 3.5e9, TransitionCycles: 13500})
	tr.Enclaves.Insert(events.EnclaveMeta{Enclave: 1, Name: "e1", NumPages: 64, EDL: testEDL})
	synthEvents(tr, nOps, 0, 0x5eed)
	return tr
}

// deltaTrace builds an append body: events only, IDs continuing after
// the base.
func deltaTrace(t testing.TB, nOps int, firstID int64) *events.Trace {
	t.Helper()
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	synthEvents(tr, nOps, firstID, 0xfeed+uint64(firstID))
	return tr
}

func traceBytes(t testing.TB, tr *events.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// --- HTTP helpers -------------------------------------------------------

func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{PollTimeout: 250 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func upload(t testing.TB, ts *httptest.Server, id string, tr *events.Trace) apiv1.TraceInfo {
	t.Helper()
	url := ts.URL + "/v1/traces"
	if id != "" {
		url += "?id=" + id
	}
	status, raw := doReq(t, "POST", url, traceBytes(t, tr))
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", status, raw)
	}
	var info apiv1.TraceInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// --- end-to-end tests ---------------------------------------------------

// TestServedReportByteEqualsOffline is the serve contract in one test:
// the report served over HTTP is byte-for-byte what the offline
// analyser emits through the same api/v1 canonical serialisation.
func TestServedReportByteEqualsOffline(t *testing.T) {
	_, ts := newTestServer(t)
	tr := synthTrace(t, 500)
	info := upload(t, ts, "golden", tr)
	if err := apiv1.CheckVersion(info.SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if info.Counts.Ecalls != tr.Ecalls.Len() {
		t.Fatalf("info counts %+v do not match trace", info.Counts)
	}

	status, served := doReq(t, "GET", ts.URL+"/v1/traces/golden/report", nil)
	if status != http.StatusOK {
		t.Fatalf("report: status %d: %s", status, served)
	}

	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, offline) {
		t.Fatalf("served report differs from offline -json output\nserved:  %.200s\noffline: %.200s", served, offline)
	}

	// The /v1/report alias resolves the sole registered trace.
	status, alias := doReq(t, "GET", ts.URL+"/v1/report", nil)
	if status != http.StatusOK || !bytes.Equal(alias, served) {
		t.Fatalf("/v1/report alias: status %d, equal=%v", status, bytes.Equal(alias, served))
	}
}

// TestReportCacheHitAndAppendInvalidation proves re-requests hit the
// artifact cache and an append produces a fresh report under a new
// content key.
func TestReportCacheHitAndAppendInvalidation(t *testing.T) {
	s, ts := newTestServer(t)
	info := upload(t, ts, "tr", synthTrace(t, 300))

	_, first := doReq(t, "GET", ts.URL+"/v1/traces/tr/report", nil)
	m0 := s.cache.Metrics()
	_, second := doReq(t, "GET", ts.URL+"/v1/traces/tr/report", nil)
	m1 := s.cache.Metrics()
	if !bytes.Equal(first, second) {
		t.Fatal("identical trace served two different reports")
	}
	if m1.Hits != m0.Hits+1 {
		t.Fatalf("re-request did not hit the cache: %+v -> %+v", m0, m1)
	}

	status, raw := doReq(t, "POST", ts.URL+"/v1/traces/tr/append", traceBytes(t, deltaTrace(t, 50, 2_000)))
	if status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, raw)
	}
	var after apiv1.TraceInfo
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.ContentKey == info.ContentKey {
		t.Fatal("append did not change the content key")
	}
	if after.Seq != info.Seq+1 {
		t.Fatalf("append seq = %d, want %d", after.Seq, info.Seq+1)
	}
	_, third := doReq(t, "GET", ts.URL+"/v1/traces/tr/report", nil)
	if bytes.Equal(first, third) {
		t.Fatal("appended trace served the stale report")
	}
}

// TestStatsAfterAppendEqualAnalyzer proves /stats reads the report
// artifact: its statistics equal the analyser's, a warm request answers
// the same document, and after an append that opens a new chunk the
// statistics equal the analyser's on the appended trace.
func TestStatsAfterAppendEqualAnalyzer(t *testing.T) {
	_, ts := newTestServer(t)

	// Ecall-only trace with exactly two full chunks, so the append lands
	// in a fresh chunk.
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "stats", FrequencyHz: 3.5e9, TransitionCycles: 13500})
	rows := make([]events.CallEvent, 2048)
	for i := range rows {
		rows[i] = events.CallEvent{
			ID: events.EventID(i + 1), Kind: events.KindEcall, Enclave: 1,
			Thread: 1, Name: fmt.Sprintf("ecall_%d", i%3),
			Start: vtime.Cycles(int64(i) * 10_000), End: vtime.Cycles(int64(i)*10_000 + 20_000 + int64(i%50)*1000),
			Parent: events.NoEvent, AEXCount: i % 2,
		}
	}
	tr.Ecalls.BatchInsert(rows)
	upload(t, ts, "w", tr)

	getStats := func() apiv1.StatsReport {
		t.Helper()
		status, raw := doReq(t, "GET", ts.URL+"/v1/traces/w/stats", nil)
		if status != http.StatusOK {
			t.Fatalf("stats: status %d: %s", status, raw)
		}
		var doc apiv1.StatsReport
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	cold := getStats()
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := apiv1.FromStats(a.Analyze().Stats)
	if !reflect.DeepEqual(cold.Stats, want) {
		t.Fatal("served stats differ from the analyser's")
	}

	if warm := getStats(); !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm stats differ from the cold answer")
	}

	// Append events that open a third chunk.
	delta, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	more := make([]events.CallEvent, 100)
	for i := range more {
		more[i] = events.CallEvent{
			ID: events.EventID(3000 + i), Kind: events.KindEcall, Enclave: 1,
			Thread: 1, Name: "ecall_tail",
			Start: vtime.Cycles(100_000_000 + i*10_000), End: vtime.Cycles(100_000_000 + i*10_000 + 30_000),
			Parent: events.NoEvent,
		}
	}
	delta.Ecalls.BatchInsert(more)
	if status, raw := doReq(t, "POST", ts.URL+"/v1/traces/w/append", traceBytes(t, delta)); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, raw)
	}

	tail := getStats()
	// Mirror the append locally so the offline analyser sees the same rows.
	tr.Ecalls.BatchInsert(more)
	a2, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail.Stats, apiv1.FromStats(a2.Analyze().Stats)) {
		t.Fatal("post-append stats differ from the analyser's")
	}
}

// TestReportAfterAppendEqualsOffline proves the complete report —
// statistics, detector findings, call graph, security hints — of a
// multi-chunk trace is byte-identical to the offline analyser's cold,
// warm and after an append that grows the tail chunk and opens a new
// one.
func TestReportAfterAppendEqualsOffline(t *testing.T) {
	_, ts := newTestServer(t)
	tr := synthTrace(t, 1500) // two ecall chunks
	upload(t, ts, "rw", tr)

	getReport := func() []byte {
		t.Helper()
		status, raw := doReq(t, "GET", ts.URL+"/v1/traces/rw/report", nil)
		if status != http.StatusOK {
			t.Fatalf("report: status %d: %s", status, raw)
		}
		return raw
	}
	offline := func() []byte {
		t.Helper()
		a, err := analyzer.New(tr, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	nChunks := tr.Ecalls.NumChunks()
	if nChunks < 2 {
		t.Fatalf("want a multi-chunk trace, got %d ecall chunks", nChunks)
	}
	cold := getReport()
	if !bytes.Equal(cold, offline()) {
		t.Fatal("cold report differs from the offline analyser's")
	}
	if !bytes.Equal(getReport(), cold) {
		t.Fatal("warm report differs from the cold one")
	}

	// Append enough sorted events to fill the tail ecall chunk and spill
	// into a new one.
	delta := deltaTrace(t, 700, 3_000)
	if status, raw := doReq(t, "POST", ts.URL+"/v1/traces/rw/append", traceBytes(t, delta)); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, raw)
	}
	appendTrace(tr, delta) // mirror locally for the offline reference

	if grown := tr.Ecalls.NumChunks(); grown != nChunks+1 {
		t.Fatalf("append grew the ecall table to %d chunks, want %d", grown, nChunks+1)
	}
	if !bytes.Equal(getReport(), offline()) {
		t.Fatal("post-append report differs from the offline analyser's")
	}
}

// TestSortedAndUnsortedUploadsServeSameReport uploads the same events
// twice — stream-sorted, which the daemon folds in place, and in
// reverse storage order, which it folds from sorted copies — and
// requires byte-identical reports. Some ocalls name as Parent an ecall
// that had already returned: resolving such links by event ID on one
// path only would make the two reports disagree.
func TestSortedAndUnsortedUploadsServeSameReport(t *testing.T) {
	_, ts := newTestServer(t)
	build := func(sorted bool) *events.Trace {
		tr := synthTrace(t, 1500)
		var late []events.CallEvent
		for i, e := range tr.Ecalls.Rows() {
			if i%50 == 0 {
				late = append(late, events.CallEvent{
					ID: events.EventID(1_000_000 + i), Kind: events.KindOcall, Enclave: 1,
					Thread: e.Thread, Name: "ocall_log",
					Start: e.End + 10, End: e.End + 400, Parent: e.ID,
				})
			}
		}
		tr.Ocalls.BatchInsert(late)
		if sorted {
			events.StreamSort(tr)
		} else {
			tr.Ecalls.Replace(reversed(tr.Ecalls.Rows()))
			tr.Ocalls.Replace(reversed(tr.Ocalls.Rows()))
		}
		return tr
	}
	report := func(id string) []byte {
		t.Helper()
		status, raw := doReq(t, "GET", ts.URL+"/v1/traces/"+id+"/report", nil)
		if status != http.StatusOK {
			t.Fatalf("report %s: status %d: %s", id, status, raw)
		}
		return raw
	}
	upload(t, ts, "sorted", build(true))
	upload(t, ts, "unsorted", build(false))
	sorted := report("sorted")
	unsorted := report("unsorted")
	if !bytes.Equal(sorted, unsorted) {
		t.Fatal("the same events uploaded sorted and unsorted served different reports")
	}
}

func reversed[T any](rows []T) []T {
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
	return rows
}

// TestLintEndpoint proves the hybrid lint artifact serves the EDL
// embedded in the trace.
func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	upload(t, ts, "l", synthTrace(t, 200))
	status, raw := doReq(t, "GET", ts.URL+"/v1/traces/l/lint", nil)
	if status != http.StatusOK {
		t.Fatalf("lint: status %d: %s", status, raw)
	}
	var doc apiv1.LintReport
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := apiv1.CheckVersion(doc.SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if doc.Source != "hybrid" {
		t.Fatalf("lint source = %q, want hybrid", doc.Source)
	}
	if doc.Summary.Ecalls != 2 || doc.Summary.Ocalls != 2 {
		t.Fatalf("lint summary = %+v, want the embedded EDL's 2+2 calls", doc.Summary)
	}
}

// TestSourceLintEndpoint proves ?source=1 runs the source passes under
// the daemon's configured root: the report gains per-entry transition
// predictions (every entry "not-executed" — the synthetic trace has
// none of the exhibit's ecalls) and caches separately from the plain
// lint artifact.
func TestSourceLintEndpoint(t *testing.T) {
	s := New(Options{
		SourceRoot: "../..",
		SourceDirs: []string{"internal/workloads/amplify"},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	upload(t, ts, "l", synthTrace(t, 100))

	status, raw := doReq(t, "GET", ts.URL+"/v1/traces/l/lint?source=1", nil)
	if status != http.StatusOK {
		t.Fatalf("source lint: status %d: %s", status, raw)
	}
	var doc apiv1.LintReport
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Predicted) == 0 {
		t.Fatal("source lint: no per-entry predictions; the source pass did not run")
	}
	for _, p := range doc.Predicted {
		if p.Verdict != "not-executed" {
			t.Errorf("entry %s: verdict %q, want not-executed (trace has no such ecall)", p.Ecall, p.Verdict)
		}
	}

	// The plain variant must come from its own cache slot, without the
	// source pass's predictions.
	status, raw = doReq(t, "GET", ts.URL+"/v1/traces/l/lint", nil)
	if status != http.StatusOK {
		t.Fatalf("plain lint: status %d: %s", status, raw)
	}
	var plain apiv1.LintReport
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Predicted) != 0 {
		t.Fatalf("plain lint gained predictions %v; the source artifact leaked across cache keys", plain.Predicted)
	}
}

// TestSourceLintFlowsByteIdentical records one leaky run and proves the
// typed flows section is one schema end to end: the daemon's
// `GET /v1/traces/{id}/lint?source=1` answer and the api/v1 document
// `sgx-perf-lint -workload leaky -trace … -source ../.. -source-dirs
// internal/workloads/leaky -json` emits offline carry byte-identical
// `flows` — same marshaller, same order, no drift between the two
// surfaces.
func TestSourceLintFlowsByteIdentical(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "leaky"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("main")
	w, err := leaky.New(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(leaky.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	trace := l.Trace()

	s := New(Options{
		SourceRoot: "../..",
		SourceDirs: []string{"internal/workloads/leaky"},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	upload(t, ts, "leaky", trace)
	status, raw := doReq(t, "GET", ts.URL+"/v1/traces/leaky/lint?source=1", nil)
	if status != http.StatusOK {
		t.Fatalf("source lint: status %d: %s", status, raw)
	}

	iface, err := leaky.Interface()
	if err != nil {
		t.Fatal(err)
	}
	report, err := sgxperf.HybridLint(iface, trace, sgxperf.LintOptions{
		SourceRoot: "../..",
		SourceDirs: []string{"internal/workloads/leaky"},
	})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := apiv1.Marshal(apiv1.FromLintReport(report))
	if err != nil {
		t.Fatal(err)
	}

	want := rawSection(t, offline, "flows")
	got := rawSection(t, raw, "flows")
	if len(want) == 0 {
		t.Fatal("offline report has no flows section; the leaky exhibit should leak")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flows sections differ between the endpoint and the offline CLI path.\n--- serve\n%s\n--- offline\n%s", got, want)
	}
}

// rawSection extracts one top-level key of a JSON document verbatim.
func rawSection(t testing.TB, doc []byte, key string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	return m[key]
}

// TestErrorStatuses drives each sentinel through the HTTP surface.
func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	upload(t, ts, "dup", synthTrace(t, 10))

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		status int
	}{
		{"unknown trace", "GET", "/v1/traces/nope/report", nil, http.StatusNotFound},
		{"unknown trace info", "GET", "/v1/traces/nope", nil, http.StatusNotFound},
		{"corrupt upload", "POST", "/v1/traces", []byte("not an evstore stream"), http.StatusBadRequest},
		{"duplicate id", "POST", "/v1/traces?id=dup", traceBytes(t, synthTrace(t, 5)), http.StatusConflict},
		{"bad id", "POST", "/v1/traces?id=bad/slash", traceBytes(t, synthTrace(t, 5)), http.StatusBadRequest},
		{"dot id", "POST", "/v1/traces?id=.", traceBytes(t, synthTrace(t, 5)), http.StatusBadRequest},
		{"dot-dot id", "POST", "/v1/traces?id=..", traceBytes(t, synthTrace(t, 5)), http.StatusBadRequest},
		{"bad enclave param", "GET", "/v1/traces/dup/report?enclave=x", nil, http.StatusBadRequest},
		{"append to unknown", "POST", "/v1/traces/nope/append", traceBytes(t, synthTrace(t, 5)), http.StatusNotFound},
		{"report alias ambiguous", "GET", "/v1/report?trace=ghost", nil, http.StatusNotFound},
		{"source lint unconfigured", "GET", "/v1/traces/dup/lint?source=1", nil, http.StatusUnprocessableEntity},
		{"bad source param", "GET", "/v1/traces/dup/lint?source=x", nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		status, raw := doReq(t, c.method, ts.URL+c.path, c.body)
		if status != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, status, c.status, raw)
			continue
		}
		var e apiv1.Error
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", c.name, raw)
			continue
		}
		if e.Status != c.status || e.SchemaVersion != apiv1.Version || e.Error == "" {
			t.Errorf("%s: error doc %+v", c.name, e)
		}
	}
}

// retiredBodies renders tr in each layout earlier versions of the store
// wrote, derived from its current save: a whole-file gob stream in the
// old header shape, the index-less version 2, a version 3 file whose
// meta table is a gob chunk (codec byte 0), and a file whose first chunk
// is flate-flagged.
func retiredBodies(t *testing.T, tr *events.Trace) map[string][]byte {
	t.Helper()
	var gobBody bytes.Buffer
	enc := gob.NewEncoder(&gobBody)
	for _, v := range []any{
		struct {
			Magic   string
			Version int
			Tables  []string
		}{"sgxperf-evstore", 1, []string{"meta", "ecalls", "ocalls", "aexs", "paging", "syncs", "threads", "enclaves", "switchless"}},
		tr.Meta.Rows(), tr.Ecalls.Rows(), tr.Ocalls.Rows(), tr.AEXs.Rows(), tr.Paging.Rows(),
		tr.Syncs.Rows(), tr.Threads.Rows(), tr.Enclaves.Rows(), tr.Switchless.Rows(),
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}

	valid := traceBytes(t, tr)
	const versionAt = len("sgxperf-evc")
	// The footer is the index's 8-byte offset and the 8-byte "sgxEVIDX".
	indexOff := int(binary.LittleEndian.Uint64(valid[len(valid)-16:]))
	v2 := append([]byte(nil), valid[:indexOff]...)
	v2[versionAt] = 2

	// Meta's codec byte follows #tables and the name "meta", in the data
	// section and in the index alike.
	const metaCodecAt = 1 + 1 + len("meta")
	v3 := append([]byte(nil), valid...)
	v3[versionAt] = 3
	v3[versionAt+1+metaCodecAt] = 0
	v3[indexOff+metaCodecAt] = 0

	sr, err := evstore.NewStreamReader(bytes.NewReader(valid), int64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	first := sr.Chunks("meta")[0]
	flate := append([]byte(nil), valid...)
	flate[int(first.Offset)+len(binary.AppendUvarint(nil, uint64(first.Rows)))] = 1

	return map[string][]byte{
		"whole-file gob":      gobBody.Bytes(),
		"v2 magic":            v2,
		"v3 meta gob chunk":   v3,
		"flate-flagged chunk": flate,
	}
}

// TestRetiredTraceFormatsAreBadRequest: an upload or append body in a
// layout the store no longer reads gets 400 with an api/v1 error
// document, registers no trace and leaves the append target unchanged.
func TestRetiredTraceFormatsAreBadRequest(t *testing.T) {
	_, ts := newTestServer(t)
	before := upload(t, ts, "base", synthTrace(t, 20))
	for name, body := range retiredBodies(t, synthTrace(t, 10)) {
		for _, path := range []string{"/v1/traces?id=retired", "/v1/traces/base/append"} {
			status, raw := doReq(t, "POST", ts.URL+path, body)
			var e apiv1.Error
			if status != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Status != http.StatusBadRequest {
				t.Errorf("%s to %s: status %d, body %s; want 400 with an error document", name, path, status, raw)
			}
		}
	}
	status, raw := doReq(t, "GET", ts.URL+"/v1/traces", nil)
	var list apiv1.TraceList
	if status != http.StatusOK || json.Unmarshal(raw, &list) != nil {
		t.Fatalf("list: status %d body %s", status, raw)
	}
	if len(list.Traces) != 1 || !reflect.DeepEqual(list.Traces[0], before) {
		t.Fatalf("traces after refused bodies = %+v, want only the unchanged %+v", list.Traces, before)
	}
}

// TestTraceListing proves upload/list/info agree.
func TestTraceListing(t *testing.T) {
	_, ts := newTestServer(t)
	upload(t, ts, "b", synthTrace(t, 20))
	upload(t, ts, "a", synthTrace(t, 30))
	status, raw := doReq(t, "GET", ts.URL+"/v1/traces", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	var list apiv1.TraceList
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 || list.Traces[0].ID != "a" || list.Traces[1].ID != "b" {
		t.Fatalf("list = %+v, want [a b]", list.Traces)
	}
	status, raw = doReq(t, "GET", ts.URL+"/v1/traces/a", nil)
	var info apiv1.TraceInfo
	if status != http.StatusOK || json.Unmarshal(raw, &info) != nil || info.ID != "a" {
		t.Fatalf("info: status %d body %s", status, raw)
	}

	status, raw = doReq(t, "GET", ts.URL+"/v1/metrics", nil)
	var m apiv1.ServerMetrics
	if status != http.StatusOK || json.Unmarshal(raw, &m) != nil {
		t.Fatalf("metrics: status %d body %s", status, raw)
	}
	if m.Traces != 2 || m.Requests == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestMetricsMemoryGauges proves /v1/metrics carries the memory gauge
// set: a live runtime.MemStats snapshot, the peak heap observed across
// analysis work, and the artifact cache's estimated resident bytes —
// the production-observable side of the bounded-memory claim.
func TestMetricsMemoryGauges(t *testing.T) {
	_, ts := newTestServer(t)
	upload(t, ts, "m", synthTrace(t, 500))

	// A cold report populates the artifact cache and samples the peak.
	if status, raw := doReq(t, "GET", ts.URL+"/v1/traces/m/report", nil); status != http.StatusOK {
		t.Fatalf("report: status %d body %s", status, raw)
	}

	status, raw := doReq(t, "GET", ts.URL+"/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d body %s", status, raw)
	}
	var m apiv1.ServerMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Memory.HeapAllocBytes == 0 {
		t.Error("heap_alloc_bytes = 0, want a live MemStats snapshot")
	}
	if m.Memory.HeapSysBytes < m.Memory.HeapAllocBytes {
		t.Errorf("heap_sys_bytes %d < heap_alloc_bytes %d",
			m.Memory.HeapSysBytes, m.Memory.HeapAllocBytes)
	}
	// The metrics read itself folds into the peak, so the gauge is
	// never below the snapshot it ships with.
	if m.Memory.PeakHeapAllocBytes < m.Memory.HeapAllocBytes {
		t.Errorf("peak_heap_alloc_bytes %d < heap_alloc_bytes %d",
			m.Memory.PeakHeapAllocBytes, m.Memory.HeapAllocBytes)
	}
	if m.Cache.Entries == 0 || m.Cache.Bytes == 0 {
		t.Errorf("cache after a cold report = %d entries / %d bytes, want both > 0",
			m.Cache.Entries, m.Cache.Bytes)
	}
}

// TestLongPollSnapshot proves ?seq= long-polling: a poll past the
// current sequence blocks until an append bumps it.
func TestLongPollSnapshot(t *testing.T) {
	_, ts := newTestServer(t)
	info := upload(t, ts, "lp", synthTrace(t, 50))

	// Immediate snapshot (no seq).
	status, raw := doReq(t, "GET", ts.URL+"/v1/traces/lp/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", status, raw)
	}
	var snap apiv1.LiveSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != info.Seq {
		t.Fatalf("snapshot seq = %d, want %d", snap.Seq, info.Seq)
	}
	if snap.Counts.Ecalls == 0 || len(snap.Stats) == 0 {
		t.Fatalf("snapshot is empty: %+v", snap.Counts)
	}

	// Long-poll for the next change, append concurrently.
	type polled struct {
		snap apiv1.LiveSnapshot
		err  error
	}
	ch := make(chan polled, 1)
	go func() {
		status, raw := doReq(t, "GET", fmt.Sprintf("%s/v1/traces/lp/snapshot?seq=%d", ts.URL, info.Seq), nil)
		var s apiv1.LiveSnapshot
		err := json.Unmarshal(raw, &s)
		if status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, raw)
		}
		ch <- polled{s, err}
	}()
	time.Sleep(30 * time.Millisecond)
	if status, raw := doReq(t, "POST", ts.URL+"/v1/traces/lp/append", traceBytes(t, deltaTrace(t, 20, 500))); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, raw)
	}
	select {
	case p := <-ch:
		if p.err != nil {
			t.Fatal(p.err)
		}
		if p.snap.Seq != info.Seq+1 {
			t.Fatalf("long-poll woke at seq %d, want %d", p.snap.Seq, info.Seq+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not return after append")
	}

	// A poll past the head with no change answers within the poll
	// timeout with the unchanged snapshot.
	status, raw = doReq(t, "GET", fmt.Sprintf("%s/v1/traces/lp/snapshot?seq=%d", ts.URL, info.Seq+1), nil)
	if status != http.StatusOK {
		t.Fatalf("timed-out poll: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != info.Seq+1 {
		t.Fatalf("timed-out poll seq = %d, want unchanged %d", snap.Seq, info.Seq+1)
	}
}

// TestSSEStream proves the /live endpoint streams one snapshot
// immediately and one per append, as SSE events.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t)
	info := upload(t, ts, "sse", synthTrace(t, 50))

	resp, err := http.Get(ts.URL + "/v1/traces/sse/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}

	snaps := make(chan apiv1.LiveSnapshot, 4)
	go func() {
		defer close(snaps)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var s apiv1.LiveSnapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
				t.Errorf("bad SSE data: %v", err)
				return
			}
			snaps <- s
		}
	}()

	read := func(wantSeq uint64) apiv1.LiveSnapshot {
		t.Helper()
		select {
		case s, ok := <-snaps:
			if !ok {
				t.Fatal("SSE stream closed early")
			}
			if s.Seq != wantSeq {
				t.Fatalf("SSE snapshot seq = %d, want %d", s.Seq, wantSeq)
			}
			return s
		case <-time.After(5 * time.Second):
			t.Fatal("no SSE snapshot within 5s")
		}
		panic("unreachable")
	}

	first := read(info.Seq)
	if len(first.Stats) == 0 {
		t.Fatal("first SSE snapshot has no stats")
	}
	if status, raw := doReq(t, "POST", ts.URL+"/v1/traces/sse/append", traceBytes(t, deltaTrace(t, 20, 700))); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, raw)
	}
	second := read(info.Seq + 1)
	if second.Counts.Ecalls <= first.Counts.Ecalls {
		t.Fatalf("SSE snapshot counts did not grow: %d -> %d", first.Counts.Ecalls, second.Counts.Ecalls)
	}
}

// TestConcurrentReportRequests race-exercises the full path: many
// clients requesting the same cold report must coalesce onto one
// analysis and all receive identical bytes.
func TestConcurrentReportRequests(t *testing.T) {
	// Baseline: one cold report request is one computation, and the
	// report is the only artifact it leaves in the cache.
	sOne, tsOne := newTestServer(t)
	upload(t, tsOne, "cc", synthTrace(t, 400))
	if status, _ := doReq(t, "GET", tsOne.URL+"/v1/traces/cc/report", nil); status != http.StatusOK {
		t.Fatalf("baseline report: status %d", status)
	}
	m := sOne.cache.Metrics()
	if m.Misses != 1 || m.Entries != 1 {
		t.Fatalf("a cold report cost %d cache misses and left %d entries, want 1 and 1 (metrics %+v)", m.Misses, m.Entries, m)
	}
	coldMisses := m.Misses

	s, ts := newTestServer(t)
	upload(t, ts, "cc", synthTrace(t, 400))

	const clients = 12
	bodies := make([][]byte, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			status, raw := doReq(t, "GET", ts.URL+"/v1/traces/cc/report", nil)
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, status)
				return
			}
			bodies[i] = raw
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d saw a different report", i)
		}
	}
	// Concurrency must not multiply work: the 12 cold requests coalesce
	// onto exactly the computations one cold request performs.
	if m := s.cache.Metrics(); m.Misses != coldMisses {
		t.Fatalf("cold concurrent requests ran %d computations, want %d (metrics %+v)", m.Misses, coldMisses, m)
	}
}
