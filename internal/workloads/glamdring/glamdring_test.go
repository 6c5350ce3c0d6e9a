package glamdring_test

import (
	"math/big"
	"testing"
	"time"

	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/perf/workingset"
	"sgxperf/internal/sgx"
	"sgxperf/internal/workloads"
	"sgxperf/internal/workloads/glamdring"
)

func newHost(t *testing.T) *host.Host {
	t.Helper()
	h, err := host.New(glamdring.RecommendedHostOptions(sgx.MitigationNone)...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newWorkload(t *testing.T, variant glamdring.Variant) (*host.Host, *sgx.Context, *glamdring.Workload) {
	t.Helper()
	h := newHost(t)
	w, err := glamdring.New(h, variant)
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("driver")
	if err := w.Init(ctx); err != nil {
		t.Fatal(err)
	}
	return h, ctx, w
}

func TestSignatureCorrectAcrossVariants(t *testing.T) {
	// All three variants must compute the identical signature, and it
	// must equal an independent math/big modexp over the same digest.
	cert := glamdring.Certificate{Serial: 42, Subject: "CN=test"}
	key := glamdring.DefaultKey()

	sigs := map[glamdring.Variant]*big.Int{}
	for _, v := range glamdring.Variants() {
		_, ctx, w := newWorkload(t, v)
		sig, err := w.Sign(ctx, cert)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		sigs[v] = sig.Big()
	}
	for _, v := range glamdring.Variants()[1:] {
		if sigs[v].Cmp(sigs[glamdring.VariantNative]) != 0 {
			t.Fatalf("variant %s signature differs from native", v)
		}
	}
	// Independent verification: z^d mod n via math/big.
	want := new(big.Int).Exp(glamdring.DigestForTest(cert), key.D.Big(), key.N.Big())
	if sigs[glamdring.VariantNative].Cmp(want) != 0 {
		t.Fatal("native signature disagrees with math/big")
	}
}

func TestVariantOrderingMatchesPaper(t *testing.T) {
	// §5.2.3 + Fig. 6: native ≫ optimized > enclave. The paper measures
	// 145 / ≈73 / 33.9 signs/s.
	rates := map[glamdring.Variant]float64{}
	for _, v := range glamdring.Variants() {
		_, ctx, w := newWorkload(t, v)
		res, err := w.Run(ctx, workloads.Options{Ops: 3})
		if err != nil {
			t.Fatal(err)
		}
		rates[v] = res.Throughput()
	}
	native, enclave, opt := rates[glamdring.VariantNative], rates[glamdring.VariantEnclave], rates[glamdring.VariantOptimized]
	if !(native > opt && opt > enclave) {
		t.Fatalf("ordering wrong: native=%.1f optimized=%.1f enclave=%.1f", native, opt, enclave)
	}
	if native < 90 || native > 230 {
		t.Errorf("native rate %.1f signs/s, want ≈145", native)
	}
	if ratio := enclave / native; ratio < 0.1 || ratio > 0.45 {
		t.Errorf("enclave/native = %.2f, want ≈0.23", ratio)
	}
	if speedup := opt / enclave; speedup < 1.5 {
		t.Errorf("optimized/enclave = %.2fx, want ≈2.16x", speedup)
	}
}

func TestEnclaveVariantCallShape(t *testing.T) {
	// §5.2.3: bn_sub_part_words accounts for ≈99.5% of all ecalls, about
	// 6,500 per signature, with short ocalls from the BN_ family.
	h := newHost(t)
	l, err := logger.Attach(h, logger.Options{Workload: "glamdring"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := glamdring.New(h, glamdring.VariantEnclave)
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("driver")
	const signs = 2
	if _, err := w.Run(ctx, workloads.Options{Ops: signs}); err != nil {
		t.Fatal(err)
	}

	trace := l.Trace()
	total := trace.Ecalls.Len()
	subs := trace.Ecalls.Count(func(e events.CallEvent) bool {
		return e.Name == "ecall_bn_sub_part_words"
	})
	if frac := float64(subs) / float64(total); frac < 0.99 {
		t.Errorf("bn_sub_part_words = %.3f of ecalls, want ≥0.99", frac)
	}
	perSign := subs / signs
	if perSign < 5000 || perSign > 8000 {
		t.Errorf("bn_sub_part_words per signature = %d, want ≈6,500", perSign)
	}
	// Allocation ocalls fire at the ≈1-per-58-subs rate.
	expands := trace.Ocalls.Count(func(e events.CallEvent) bool {
		return e.Name == "enclave_ocall_bn_expand"
	})
	if expands < subs/70 || expands > subs/45 {
		t.Errorf("expand ocalls = %d for %d subs, want ≈1/58", expands, subs)
	}

	// The analyser must flag the SISC batching opportunity on the sub
	// ecall — the paper's headline finding.
	a, err := analyzer.New(trace, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report := a.Analyze()
	foundBatch := false
	for _, f := range report.FindingsFor("ecall_bn_sub_part_words") {
		for _, s := range f.Solutions {
			if s == analyzer.SolutionBatch || s == analyzer.SolutionMoveCaller {
				foundBatch = true
			}
		}
	}
	if !foundBatch {
		t.Errorf("analyser did not flag ecall_bn_sub_part_words for batching/moving; findings: %+v", report.Findings)
	}
	// Mean sub duration is near the transition time (§5.2.3 reports
	// ≈3µs); with vanilla costs expect roughly the dispatch overhead.
	stats, ok := report.StatsFor("ecall_bn_sub_part_words")
	if !ok {
		t.Fatal("no stats for the sub ecall")
	}
	if stats.Mean > 6*time.Microsecond {
		t.Errorf("sub ecall mean %v, want a few µs at most", stats.Mean)
	}
}

func TestOptimizedVariantCallShape(t *testing.T) {
	h := newHost(t)
	l, err := logger.Attach(h, logger.Options{Workload: "glamdring-opt"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := glamdring.New(h, glamdring.VariantOptimized)
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("driver")
	const signs = 2
	if _, err := w.Run(ctx, workloads.Options{Ops: signs}); err != nil {
		t.Fatal(err)
	}
	trace := l.Trace()
	subs := trace.Ecalls.Count(func(e events.CallEvent) bool {
		return e.Name == "ecall_bn_sub_part_words"
	})
	muls := trace.Ecalls.Count(func(e events.CallEvent) bool {
		return e.Name == "ecall_bn_mul_recursive"
	})
	if subs != 0 {
		t.Errorf("optimized variant still issued %d sub ecalls", subs)
	}
	// ≈768 multiplications per 512-bit square-and-multiply signature.
	perSign := muls / signs
	if perSign < 600 || perSign > 900 {
		t.Errorf("mul ecalls per signature = %d, want ≈768", perSign)
	}
}

func TestWorkingSetMatchesPaperShape(t *testing.T) {
	// §5.2.3: 61 pages after start-up, 32 during the benchmark.
	h := newHost(t)
	w, err := glamdring.New(h, glamdring.VariantEnclave)
	if err != nil {
		t.Fatal(err)
	}
	est := workingset.New(h, w.Enclave())
	if err := est.Start(); err != nil {
		t.Fatal(err)
	}
	defer est.Stop()

	ctx := h.NewContext("driver")
	if err := w.Init(ctx); err != nil {
		t.Fatal(err)
	}
	startup := est.Count()
	if startup < 45 || startup > 75 {
		t.Errorf("start-up working set = %d pages, want ≈61", startup)
	}
	est.Mark()
	if _, err := w.Run(ctx, workloads.Options{Ops: 1}); err != nil {
		t.Fatal(err)
	}
	during := est.Count()
	if during < 20 || during > 45 {
		t.Errorf("benchmark working set = %d pages, want ≈32", during)
	}
	if during >= startup {
		t.Errorf("benchmark set (%d) not smaller than start-up (%d)", during, startup)
	}
}

func TestInterfaceShapeMatchesPaper(t *testing.T) {
	// §5.2.3: 171 ecalls and 3,357 ocalls declared.
	h := newHost(t)
	w, err := glamdring.New(h, glamdring.VariantEnclave)
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	apps, ok := h.URTS.AppEnclaveFor(w.Enclave().ID)
	if !ok {
		t.Fatal("enclave not registered")
	}
	iface := apps.Interface()
	if got := len(iface.Ecalls()); got != 171 {
		t.Errorf("declared ecalls = %d, want 171", got)
	}
	// +4 SDK sync ocalls appended by the runtime.
	if got := len(iface.Ocalls()); got != 3357+4 {
		t.Errorf("declared ocalls = %d, want 3361", got)
	}
}

func TestUnknownVariantRejected(t *testing.T) {
	h := newHost(t)
	w, err := glamdring.New(h, glamdring.Variant("bogus"))
	if err != nil {
		t.Fatal(err) // construction treats it as enclave-less
	}
	ctx := h.NewContext("driver")
	if _, err := w.Sign(ctx, glamdring.Certificate{}); err == nil {
		t.Fatal("unknown variant signed successfully")
	}
}

func TestSwitchlessVariantCorrectAndFaster(t *testing.T) {
	cert := glamdring.Certificate{Serial: 7, Subject: "CN=switchless"}
	_, ctx, w := newWorkload(t, glamdring.VariantSwitchless)
	defer w.Close()
	sig, err := w.Sign(ctx, cert)
	if err != nil {
		t.Fatal(err)
	}
	_, nctx, nw := newWorkload(t, glamdring.VariantNative)
	want, err := nw.Sign(nctx, cert)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Big().Cmp(want.Big()) != 0 {
		t.Fatal("switchless signature differs from native")
	}
	served, _ := w.SwitchlessStats()
	if served == 0 {
		t.Fatal("no sub calls went through the switchless queue")
	}
	if len(glamdring.AllVariants()) != 4 {
		t.Fatalf("AllVariants = %v", glamdring.AllVariants())
	}
}
