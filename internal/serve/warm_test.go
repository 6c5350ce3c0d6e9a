package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sgxperf/internal/experiments"
	"sgxperf/internal/perf/events"
)

// synthEDL declares the calls experiments.SynthAnalysisTrace records,
// so the trace carries the interface the lint endpoint re-ranks.
const synthEDL = `enclave {
	trusted {
		public ecall_put(); public ecall_get(); public ecall_del();
		public ecall_tick(); public ecall_crypto(); public ecall_flush();
	};
	untrusted { ocall_write(); ocall_read(); ocall_log(); };
};`

// perRequest serves GET path through h n times, each a fresh request
// into a fresh httptest.ResponseRecorder, and returns the mean heap
// allocations and allocated bytes per request with the last response.
// Like testing.AllocsPerRun it runs once to warm up and pins GOMAXPROCS
// to 1 while counting.
func perRequest(h http.Handler, path string, n int) (allocs, bytes float64, last *httptest.ResponseRecorder) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	last = serve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		last = serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n), last
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// Warm-read budgets: a cached report or lint answer writes the bytes
// the cold request marshalled, so beyond a fixed per-request overhead
// (request, recorder, content key, headers) the only sizeable
// allocation is the recorder's copy of the body. The counts (Go 1.24,
// linux/amd64) are 24 allocations and 30.8 KB for the 22.5 KB report,
// and 24 allocations and 8.3 KB for the 1.8 KB lint report, since the
// content key reads every table's chunk hashes into one buffer (29 and
// 29 before); the allocation budget keeps the 19 allocations of
// headroom it had over those. Before the cache kept wire bytes and the
// tail hash was memoised, a warm read cost 119 allocations and
// 150.3 KB, and 107 and 89.1 KB.
const (
	warmReadMaxAllocs = 43
	// The bytes allocated per request are bounded by
	// warmReadBodyFactor × body length + warmReadFixedBytes; the factor
	// covers the size-class rounding of the recorder's body buffer.
	warmReadBodyFactor = 1.25
	warmReadFixedBytes = 10 << 10
)

// TestWarmReadAllocs pins what a cache hit costs: once a report and a
// lint report of SynthAnalysisTrace(6000) are cached, each repeat GET
// must stay within a fixed allocation count and allocate little more
// than its body — no re-marshalling of the cached document and no
// re-encoding of any table's chunks to compute the content key. Under
// -race only the allocation count is held: the race runtime allocates
// bytes the budget does not price.
func TestWarmReadAllocs(t *testing.T) {
	tr, err := experiments.SynthAnalysisTrace(6000)
	if err != nil {
		t.Fatal(err)
	}
	tr.Enclaves.Insert(events.EnclaveMeta{Enclave: 1, Name: "e1", NumPages: 64, EDL: synthEDL})
	h := New(Options{}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces?id=warm", bytes.NewReader(traceBytes(t, tr))))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}

	for _, path := range []string{"/v1/traces/warm/report", "/v1/traces/warm/lint"} {
		cold := httptest.NewRecorder()
		h.ServeHTTP(cold, httptest.NewRequest("GET", path, nil))
		if cold.Code != http.StatusOK {
			t.Fatalf("cold %s: status %d: %s", path, cold.Code, cold.Body)
		}
		allocs, bytesPer, warm := perRequest(h, path, 50)
		if warm.Code != http.StatusOK || !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("warm %s: status %d, body equal to the cold one: %v", path, warm.Code, bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()))
		}
		if got, want := warm.Header().Get("Content-Type"), cold.Header().Get("Content-Type"); got != want || got != "application/json" {
			t.Errorf("warm %s: Content-Type %q, cold %q", path, got, want)
		}
		body := warm.Body.Len()
		maxBytes := warmReadBodyFactor*float64(body) + warmReadFixedBytes
		t.Logf("warm %s: %.0f allocs, %.1f KB per request for a %.1f KB body", path, allocs, bytesPer/1e3, float64(body)/1e3)
		if allocs > warmReadMaxAllocs {
			t.Errorf("warm %s: %.0f allocations per request, budget %d", path, allocs, warmReadMaxAllocs)
		}
		if !raceEnabled && bytesPer > maxBytes {
			t.Errorf("warm %s: %.0f bytes allocated per request, budget %.0f (%.2f × the %d-byte body + %d)",
				path, bytesPer, maxBytes, warmReadBodyFactor, body, warmReadFixedBytes)
		}
	}
}
