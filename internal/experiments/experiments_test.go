package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTransitionsMatchPaper(t *testing.T) {
	rows, err := Transitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		want := time.Duration(r.PaperNS) * time.Nanosecond
		diff := r.Measured - want
		if diff < 0 {
			diff = -diff
		}
		if diff > want/10 {
			t.Errorf("%s: measured %v, paper %v", r.Mitigation, r.Measured, want)
		}
	}
	text := RenderTransitions(rows)
	if !strings.Contains(text, "vanilla") || !strings.Contains(text, "spectre+l1tf") {
		t.Fatalf("render missing rows:\n%s", text)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	res, err := RunTable2(Table2Options{Calls: 500, LongCalls: 5})
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got time.Duration, wantNS int64, tolFrac float64) {
		t.Helper()
		want := time.Duration(wantNS) * time.Nanosecond
		lo := time.Duration(float64(want) * (1 - tolFrac))
		hi := time.Duration(float64(want) * (1 + tolFrac))
		if got < lo || got > hi {
			t.Errorf("%s = %v, paper %v", name, got, want)
		}
	}
	within("native ecall", res.NativeEcall, 4205, 0.05)
	within("logged ecall", res.LoggedEcall, 5572, 0.05)
	within("native ecall+ocall", res.NativeEcallOcall, 8013, 0.05)
	within("logged ecall+ocall", res.LoggedEcallOcall, 10699, 0.05)
	within("ecall overhead", res.EcallOverhead, 1366, 0.06)
	within("ocall overhead", res.OcallOverhead, 1320, 0.06)
	within("per-AEX count", res.PerAEXCount, 1076, 0.25)
	within("per-AEX trace", res.PerAEXTrace, 1118, 0.25)
	if res.MeanAEXs < 10 || res.MeanAEXs > 13 {
		t.Errorf("mean AEX count = %.2f, paper ≈11.5", res.MeanAEXs)
	}
	text := res.Render()
	for _, want := range []string{"Table 2", "AEX counting", "per-AEX"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	f, err := RunFig5(60)
	if err != nil {
		t.Fatal(err)
	}
	perReq := float64(f.EcallEvents) / float64(f.Requests)
	if perReq < 22 || perReq > 34 {
		t.Errorf("ecall events per request = %.1f, paper ≈27.6", perReq)
	}
	if f.DistinctEcalls < 55 || f.DistinctEcalls > 65 {
		t.Errorf("distinct ecalls = %d, paper 61", f.DistinctEcalls)
	}
	if f.ShortEcallFrac < 0.45 || f.ShortEcallFrac > 0.85 {
		t.Errorf("short ecall fraction = %.2f, paper 0.61", f.ShortEcallFrac)
	}
	if !strings.Contains(f.DOT, "digraph") {
		t.Error("no DOT graph")
	}
	if !strings.Contains(f.Render(), "Fig. 5") {
		t.Error("render broken")
	}
}

func TestFig6SQLiteShape(t *testing.T) {
	rows, err := RunFig6SQLite(300)
	if err != nil {
		t.Fatal(err)
	}
	get := func(mit, variant string) Fig6Row {
		for _, r := range rows {
			if r.Mitigation == mit && r.Variant == variant {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", mit, variant)
		return Fig6Row{}
	}
	native := get("vanilla", "native")
	if native.Normalised < 0.99 || native.Normalised > 1.01 {
		t.Errorf("native normalised = %.2f", native.Normalised)
	}
	// The paper's bar ordering: native > merged > enclave, and mitigations
	// make the enclave bars worse.
	enc := get("vanilla", "enclave")
	merged := get("vanilla", "merged")
	if !(native.Throughput > merged.Throughput && merged.Throughput > enc.Throughput) {
		t.Errorf("ordering wrong: %v", rows)
	}
	encL1TF := get("spectre+l1tf", "enclave")
	if encL1TF.Normalised >= enc.Normalised {
		t.Errorf("L1TF bar (%.2f) should be below vanilla bar (%.2f)", encL1TF.Normalised, enc.Normalised)
	}
	if !strings.Contains(RenderFig6("sqlite", rows), "normalised") {
		t.Error("render broken")
	}
}

func TestFig6LibreSSLShape(t *testing.T) {
	rows, err := RunFig6LibreSSL(2)
	if err != nil {
		t.Fatal(err)
	}
	speedups := Speedups(rows, "enclave", "optimized")
	// §5.2.3: 2.16× vanilla, 2.66× Spectre, 2.87× L1TF — the speedup must
	// grow with the mitigation level.
	v, s, l := speedups["vanilla"], speedups["spectre"], speedups["spectre+l1tf"]
	if v < 1.5 || v > 4 {
		t.Errorf("vanilla speedup %.2f, paper 2.16", v)
	}
	if !(l > s && s > v) {
		t.Errorf("speedups not increasing with mitigation: %.2f %.2f %.2f", v, s, l)
	}
}

func TestFig78Shape(t *testing.T) {
	f, err := RunFig78(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Event volume scales to ≈1.1M over 31s.
	perSec := float64(f.EcallEvents) / f.Duration.Seconds()
	if perSec < 20000 || perSec > 50000 {
		t.Errorf("ecall events/s = %.0f, paper ≈35.5k", perSec)
	}
	if f.StartupPages < 280 || f.StartupPages > 360 {
		t.Errorf("startup pages = %d, paper 322", f.StartupPages)
	}
	if f.SteadyPages < 75 || f.SteadyPages > 130 {
		t.Errorf("steady pages = %d, paper 94", f.SteadyPages)
	}
	if f.EnclavesFitEPC < 180 || f.EnclavesFitEPC > 300 {
		t.Errorf("EPC fit = %d, paper 249", f.EnclavesFitEPC)
	}
	if f.ZKMean <= f.ClientMean {
		t.Errorf("zk mean %v should exceed client mean %v", f.ZKMean, f.ClientMean)
	}
	if len(f.Histogram) == 0 || len(f.Scatter) == 0 {
		t.Error("missing histogram/scatter data")
	}
	if !strings.Contains(f.Render(), "Fig. 7 histogram") {
		t.Error("render broken")
	}
}

func TestHybridLockAblation(t *testing.T) {
	rows, err := RunHybridLockAblation(4, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	sdkRow, hybridRow := rows[0], rows[1]
	// The hybrid lock should issue no more sync ocalls than the SDK
	// mutex; typically far fewer (§3.4).
	if hybridRow.SyncOcalls > sdkRow.SyncOcalls {
		t.Errorf("hybrid lock issued more sync ocalls (%d) than the SDK mutex (%d)",
			hybridRow.SyncOcalls, sdkRow.SyncOcalls)
	}
	if !strings.Contains(RenderHybridLock(rows), "hybrid-lock") {
		t.Error("render broken")
	}
}

func TestPagingAblation(t *testing.T) {
	rows, err := RunPagingAblation(256, 192, 2)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PagingRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	naive, preload, selfp := byName["naive"], byName["preload"], byName["self-paging"]
	if naive.PageIns == 0 {
		t.Fatal("naive strategy triggered no paging; the ablation is vacuous")
	}
	// Self-paging must avoid SGX paging entirely after warm-up.
	if selfp.PageIns > naive.PageIns/4 {
		t.Errorf("self-paging page-ins = %d, naive = %d", selfp.PageIns, naive.PageIns)
	}
	// Pre-loading pays the paging cost outside the enclave: same page
	// traffic, but cheaper per fault (no in-enclave AEX), so it beats
	// naive on time.
	if preload.Virtual >= naive.Virtual {
		t.Errorf("preload (%v) not faster than naive (%v)", preload.Virtual, naive.Virtual)
	}
	if !strings.Contains(RenderPaging(rows), "self-paging") {
		t.Error("render broken")
	}
}

func TestGlamdringWorkingSet(t *testing.T) {
	ws, err := RunGlamdringWorkingSet()
	if err != nil {
		t.Fatal(err)
	}
	if ws.StartupPages < 45 || ws.StartupPages > 75 {
		t.Errorf("startup = %d, paper 61", ws.StartupPages)
	}
	if ws.SteadyPages < 20 || ws.SteadyPages > 45 {
		t.Errorf("steady = %d, paper 32", ws.SteadyPages)
	}
	if !strings.Contains(ws.Render(), "working set") {
		t.Error("render broken")
	}
}

func TestSwitchlessAblation(t *testing.T) {
	rows, err := RunSwitchlessAblation(2)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SwitchlessRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	enclave := byName["enclave"].SignsPerSec
	switchless := byName["switchless"].SignsPerSec
	optimized := byName["optimized"].SignsPerSec
	// Switchless must clearly beat the per-call-transition baseline
	// without touching the partition; the paper's interface redesign
	// still wins because it removes the cross-boundary traffic entirely.
	if switchless < enclave*1.5 {
		t.Errorf("switchless %.1f not clearly above enclave %.1f", switchless, enclave)
	}
	if optimized <= switchless {
		t.Logf("note: switchless (%.1f) outperformed the redesign (%.1f) in this run", switchless, optimized)
	}
	if byName["switchless"].SwitchlessServed == 0 {
		t.Error("no calls went through the switchless queue")
	}
	// The run is deterministic, so its exact rows pin the switchless
	// runtime's virtual-time charges, not only the paper's shape.
	for _, want := range []SwitchlessRow{
		{Variant: "enclave", SignsPerSec: 20.5},
		{Variant: "switchless", SignsPerSec: 48.1, SwitchlessServed: 12496},
		{Variant: "optimized", SignsPerSec: 63.0},
	} {
		got := byName[want.Variant]
		if math.Abs(got.SignsPerSec-want.SignsPerSec) > 0.05 ||
			got.SwitchlessServed != want.SwitchlessServed || got.SwitchlessFellBack != want.SwitchlessFellBack {
			t.Errorf("%s: %.4f signs/s, %d served, %d fallbacks; want %.1f, %d, %d", want.Variant,
				got.SignsPerSec, got.SwitchlessServed, got.SwitchlessFellBack,
				want.SignsPerSec, want.SwitchlessServed, want.SwitchlessFellBack)
		}
	}
	if !strings.Contains(RenderSwitchless(rows), "switchless") {
		t.Error("render broken")
	}
}
