package keeper_test

import (
	"bytes"
	"runtime"
	"testing"

	"sgxperf/internal/workloads/keeper"
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// perOp runs op n times after one warm-up run and returns the mean heap
// allocations and allocated bytes per run. Like testing.AllocsPerRun it
// pins GOMAXPROCS to 1 while counting.
func perOp(op func(), n int) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// Request budgets: one Client.Do on a connected client, both ecalls,
// the simulator and the store included, with no logger attached. The
// counts they were set from (Go 1.24, linux/amd64) were 14, 13 and 12
// allocations and 3,840, 2,688 and 432 bytes; the budgets leave about
// 20% over them. When every packet, pseudonym and MAC was a fresh
// allocation a request cost 36, 34 and 31 allocations and 10,352,
// 9,060 and 1,392 bytes.
var requestBudgets = []struct {
	op            keeper.ZKOp
	data          int
	allocs, bytes float64
}{
	{keeper.OpSetData, 1024, 17, 4600},
	{keeper.OpGetData, 0, 16, 3250},
	{keeper.OpExists, 0, 15, 520},
}

// TestRequestAllocs holds one SecureKeeper request to the budgets
// above: the request path seals, opens and encodes its packets in
// place, so each request allocates its packets and little else. Under
// -race only the allocation count is held: the race runtime allocates
// bytes the budget does not price. Not parallel: another test's
// allocations would count.
func TestRequestAllocs(t *testing.T) {
	_, ctx, w := newKeeper(t)
	c, err := w.Connect(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := c.Do(ctx, keeper.Request{Op: keeper.OpCreate, Path: "/c0", Version: -1}); err != nil || r.Err != "" {
		t.Fatalf("%v %q", err, r.Err)
	}
	for _, b := range requestBudgets {
		req := keeper.Request{Op: b.op, Path: "/c0", Data: bytes.Repeat([]byte("p"), b.data), Version: -1}
		allocs, bytesPer := perOp(func() {
			if r, err := c.Do(ctx, req); err != nil || r.Err != "" {
				t.Fatalf("%s: %v %q", b.op, err, r.Err)
			}
		}, 200)
		t.Logf("%s: %.2f allocations, %.0f bytes per request", b.op, allocs, bytesPer)
		if allocs > b.allocs {
			t.Errorf("%s: %.2f allocations per request, budget %.0f", b.op, allocs, b.allocs)
		}
		if !raceEnabled && bytesPer > b.bytes {
			t.Errorf("%s: %.0f bytes allocated per request, budget %.0f", b.op, bytesPer, b.bytes)
		}
	}
}
