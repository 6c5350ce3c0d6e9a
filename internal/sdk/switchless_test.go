package sdk_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
)

// slFixture builds an enclave suited for switchless testing: plenty of
// TCSs and a mix of public/private ecalls.
type slFixture struct {
	h       *host.Host
	ctx     *sgx.Context
	app     *sdk.AppEnclave
	otab    *sdk.OcallTable
	proxies map[string]sdk.Proxy
}

func newSLFixture(t *testing.T) *slFixture {
	t.Helper()
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	iface := edl.NewInterface()
	if _, err := iface.AddEcall("ecall_double", true); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddEcall("ecall_short_work", true); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddEcall("ecall_private", false); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddEcall("ecall_with_ocall", true); err != nil {
		t.Fatal(err)
	}
	if _, err := iface.AddOcall("ocall_ping", []string{"ecall_private"}); err != nil {
		t.Fatal(err)
	}
	impl := map[string]sdk.TrustedFn{
		"ecall_double": func(env *sdk.Env, args any) (any, error) {
			n, _ := args.(int)
			return 2 * n, nil
		},
		"ecall_short_work": func(env *sdk.Env, args any) (any, error) {
			env.Compute(time.Microsecond)
			return nil, nil
		},
		"ecall_private": func(env *sdk.Env, args any) (any, error) { return nil, nil },
		"ecall_with_ocall": func(env *sdk.Env, args any) (any, error) {
			return env.Ocall("ocall_ping", nil)
		},
	}
	ctx := h.NewContext("main")
	app, err := h.URTS.CreateEnclave(ctx, sgx.Config{Name: "sl", NumTCS: 8}, iface, impl)
	if err != nil {
		t.Fatal(err)
	}
	otab, err := sdk.BuildOcallTable(iface, h.URTS, map[string]sdk.OcallFn{
		"ocall_ping": func(ctx *sgx.Context, args any) (any, error) { return "pong", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &slFixture{
		h: h, ctx: ctx, app: app, otab: otab,
		proxies: sdk.Proxies(app, h.Proc, otab),
	}
}

// fixedPool is a configuration with equal worker bounds: n workers for
// the runtime's lifetime and no scheduler.
func fixedPool(n, depth int) sdk.SwitchlessConfig {
	return sdk.SwitchlessConfig{MinWorkers: n, MaxWorkers: n, QueueDepth: depth}
}

func callID(t *testing.T, f *slFixture, name string) int {
	t.Helper()
	decl, ok := f.app.Interface().Lookup(name)
	if !ok {
		t.Fatalf("no ecall %q", name)
	}
	return decl.ID
}

func TestSwitchlessReturnsResults(t *testing.T) {
	f := newSLFixture(t)
	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(2, 8), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	for i := 0; i < 50; i++ {
		res, err := sl.Call(f.ctx, callID(t, f, "ecall_double"), f.otab, i)
		if err != nil {
			t.Fatal(err)
		}
		if res != 2*i {
			t.Fatalf("double(%d) = %v", i, res)
		}
	}
	served, _ := sl.Stats()
	if served != 50 {
		t.Fatalf("served = %d, want 50", served)
	}
}

func TestSwitchlessEliminatesTransitionCost(t *testing.T) {
	// The whole point (§2.3, §6): a short call over the queue must cost
	// far less than the 4.2µs transition+dispatch path.
	f := newSLFixture(t)
	id := callID(t, f, "ecall_short_work")

	// Regular path baseline.
	f.call(t, "ecall_short_work")
	start := f.ctx.Now()
	const n = 100
	for i := 0; i < n; i++ {
		f.call(t, "ecall_short_work")
	}
	regular := f.ctx.Clock().DurationSince(start) / n

	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(1, 4), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	if _, err := sl.Call(f.ctx, id, f.otab, nil); err != nil {
		t.Fatal(err)
	}
	start = f.ctx.Now()
	for i := 0; i < n; i++ {
		if _, err := sl.Call(f.ctx, id, f.otab, nil); err != nil {
			t.Fatal(err)
		}
	}
	switchless := f.ctx.Clock().DurationSince(start) / n

	if regular < 5*time.Microsecond {
		t.Fatalf("regular path suspiciously fast: %v", regular)
	}
	if switchless*2 >= regular {
		t.Fatalf("switchless %v not clearly faster than regular %v", switchless, regular)
	}
}

func (f *slFixture) call(t *testing.T, name string) {
	t.Helper()
	if _, err := f.proxies[name](f.ctx, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchlessRejectsPrivateEcalls(t *testing.T) {
	f := newSLFixture(t)
	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(1, 4), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	_, err = sl.Call(f.ctx, callID(t, f, "ecall_private"), f.otab, nil)
	if !errors.Is(err, sdk.ErrEcallNotAllowed) {
		t.Fatalf("private switchless call: %v", err)
	}
}

func TestSwitchlessWorkerCanOcall(t *testing.T) {
	f := newSLFixture(t)
	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(1, 4), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	// The worker thread must be able to leave the enclave for ocalls and
	// come back, using the saved ocall table.
	if _, err := f.proxies["ecall_double"](f.ctx, 1); err != nil {
		t.Fatal(err) // ensures a table is saved via the regular path first
	}
	res, err := sl.Call(f.ctx, callID(t, f, "ecall_with_ocall"), f.otab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != "pong" {
		t.Fatalf("ocall via worker = %v", res)
	}
}

func TestSwitchlessFallbackOnFullQueue(t *testing.T) {
	f := newSLFixture(t)
	// One worker, depth 1, and a slow call to jam the queue.
	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(1, 1), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	id := callID(t, f, "ecall_short_work")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if err := f.h.Spawn("caller", func(ctx *sgx.Context) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := sl.Call(ctx, id, f.otab, nil); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	served, fellBack := sl.Stats()
	if served+fellBack != 400 {
		t.Fatalf("served %d + fallback %d != 400", served, fellBack)
	}
	if served == 0 {
		t.Fatal("nothing ran switchless")
	}
}

func TestSwitchlessStop(t *testing.T) {
	f := newSLFixture(t)
	freeBefore := f.app.Enclave().FreeTCS()
	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(3, 12), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.app.Enclave().FreeTCS(); got != freeBefore-3 {
		t.Fatalf("workers hold %d TCSs, want 3", freeBefore-got)
	}
	sl.Stop()
	sl.Stop() // idempotent
	if got := f.app.Enclave().FreeTCS(); got != freeBefore {
		t.Fatalf("TCSs not released: %d != %d", got, freeBefore)
	}
	if _, err := sl.Call(f.ctx, callID(t, f, "ecall_double"), f.otab, 1); !errors.Is(err, sdk.ErrSwitchlessStopped) {
		t.Fatalf("call after stop: %v", err)
	}
}

func TestSwitchlessNeedsFreeTCS(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	iface := edl.NewInterface()
	if _, err := iface.AddEcall("e", true); err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("main")
	app, err := h.URTS.CreateEnclave(ctx, sgx.Config{NumTCS: 1}, iface,
		map[string]sdk.TrustedFn{"e": func(env *sdk.Env, args any) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.URTS.StartSwitchless(app, fixedPool(2, 8), nil); err == nil {
		t.Fatal("switchless started with too few TCSs")
	}
}

func TestSwitchlessBypassesLoggerInterposition(t *testing.T) {
	// Switchless calls do not pass through sgx_ecall: an attached logger
	// must not see them in the ecall table (the §6 observability blind
	// spot), while ocalls issued by the trusted code remain visible
	// through the stub table. The runtime compensates by emitting one
	// synthetic switchless event per served call through the observer
	// hook — the blind spot is closed in the dedicated table, not papered
	// over in the ecall one.
	f := newSLFixture(t)
	l, err := logger.Attach(f.h, logger.Options{Workload: "sl-blindspot"})
	if err != nil {
		t.Fatal(err)
	}
	// One regular call so the logger saves its stub ocall table.
	f.call(t, "ecall_with_ocall")

	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(1, 4), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	for i := 0; i < 20; i++ {
		if _, err := sl.Call(f.ctx, callID(t, f, "ecall_with_ocall"), f.otab, nil); err != nil {
			t.Fatal(err)
		}
	}
	ecalls := l.Trace().Ecalls.Len()
	ocalls := l.Trace().Ocalls.Len()
	if ecalls != 1 {
		t.Fatalf("logger saw %d ecalls, want only the 1 regular one", ecalls)
	}
	if ocalls != 1+20 {
		t.Fatalf("logger saw %d ocalls, want 21 (stub table still active for workers)", ocalls)
	}
	swless := l.Trace().Switchless.Len()
	if swless != 20 {
		t.Fatalf("trace has %d synthetic switchless events, want 20", swless)
	}
}

// TestSwitchlessStopWithInFlightCalls is the race exercise behind the
// retire protocol: callers hammer the pool while Stop arrives midway.
// Every call must either complete normally or report
// ErrSwitchlessStopped — no hangs, no lost replies, and `go test -race`
// over this path is the scheduler's data-race certificate.
func TestSwitchlessStopWithInFlightCalls(t *testing.T) {
	f := newSLFixture(t)
	sl, err := f.h.URTS.StartSwitchless(f.app, fixedPool(2, 2), f.otab)
	if err != nil {
		t.Fatal(err)
	}
	id := callID(t, f, "ecall_short_work")
	var wg sync.WaitGroup
	var completed, stopped, unexpected atomic.Uint64
	const callers, perCaller = 6, 40
	for i := 0; i < callers; i++ {
		wg.Add(1)
		if err := f.h.Spawn("caller", func(ctx *sgx.Context) {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				switch _, err := sl.Call(ctx, id, f.otab, nil); {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, sdk.ErrSwitchlessStopped):
					stopped.Add(1)
				default:
					unexpected.Add(1)
					t.Errorf("call: %v", err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Stop from a separate simulated thread once some calls are in
	// flight; the drain protocol must answer everything already queued.
	wg.Add(1)
	if err := f.h.Spawn("stopper", func(ctx *sgx.Context) {
		defer wg.Done()
		for {
			if served, fell := sl.Stats(); served+fell >= callers*perCaller/4 {
				break
			}
			runtime.Gosched()
		}
		sl.Stop()
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if unexpected.Load() != 0 {
		t.Fatalf("%d calls failed with unexpected errors", unexpected.Load())
	}
	if got := completed.Load() + stopped.Load(); got != callers*perCaller {
		t.Fatalf("accounted for %d calls, want %d", got, callers*perCaller)
	}
	if completed.Load() == 0 {
		t.Fatal("stop landed before any call completed; race window not exercised")
	}
}

// TestSwitchlessAutoTunerConverges drives the self-tuning scheduler with
// a stable concurrent load and asserts the trajectory the queueing model
// promises: the pool grows from MinWorkers, every decision is priced in
// virtual time, and the trailing decisions hold one worker count — the
// no-oscillation guarantee the closed loop's converged flag relies on.
func TestSwitchlessAutoTunerConverges(t *testing.T) {
	f := newSLFixture(t)
	cfg := sdk.SwitchlessConfig{
		Source:     "manual",
		Ecalls:     []string{"ecall_short_work"},
		MinWorkers: 1,
		MaxWorkers: 4,
		QueueDepth: 8,
		EpochCalls: 32,
	}
	sl, err := f.h.URTS.StartSwitchless(f.app, cfg, f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	id := callID(t, f, "ecall_short_work")
	var wg sync.WaitGroup
	const callers, perCaller = 6, 300
	for i := 0; i < callers; i++ {
		wg.Add(1)
		if err := f.h.Spawn("caller", func(ctx *sgx.Context) {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				if _, err := sl.Call(ctx, id, f.otab, nil); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	decisions := sl.Decisions()
	if len(decisions) < 4 {
		t.Fatalf("only %d scaling decisions for %d calls", len(decisions), callers*perCaller)
	}
	grew := false
	for i, d := range decisions {
		if d.Action == "grow" {
			grew = true
		}
		if d.Workers < cfg.MinWorkers || d.Workers > cfg.MaxWorkers {
			t.Fatalf("decision %d left the pool at %d workers, outside [%d,%d]", i, d.Workers, cfg.MinWorkers, cfg.MaxWorkers)
		}
		if d.Callers <= 0 {
			t.Fatalf("decision %d saw %d callers; caller tracking broken", i, d.Callers)
		}
	}
	if !grew {
		t.Fatal("tuner never grew the pool under sustained concurrent load")
	}
	tail := decisions[len(decisions)-3:]
	for _, d := range tail[1:] {
		if d.Workers != tail[0].Workers {
			t.Fatalf("tuner still oscillating in the trailing epochs: %+v", tail)
		}
	}
	ecallW, _ := sl.Workers()
	if ecallW != tail[len(tail)-1].Workers {
		t.Fatalf("live worker count %d disagrees with the last decision %d", ecallW, tail[len(tail)-1].Workers)
	}
}

// TestSwitchlessFixedBoundsNeverTune pins the rule that turns the
// scheduler on: with MinWorkers == MaxWorkers the pool keeps its size
// however many epochs its callers drive past, and no decision is taken
// or charged.
func TestSwitchlessFixedBoundsNeverTune(t *testing.T) {
	f := newSLFixture(t)
	cfg := sdk.SwitchlessConfig{
		Source:     "manual",
		Ecalls:     []string{"ecall_short_work"},
		MinWorkers: 2,
		MaxWorkers: 2,
		QueueDepth: 8,
		EpochCalls: 8,
	}
	sl, err := f.h.URTS.StartSwitchless(f.app, cfg, f.otab)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Stop()
	id := callID(t, f, "ecall_short_work")
	var wg sync.WaitGroup
	const callers, perCaller = 3, 40
	for i := 0; i < callers; i++ {
		wg.Add(1)
		if err := f.h.Spawn("caller", func(ctx *sgx.Context) {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				if _, err := sl.Call(ctx, id, f.otab, nil); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if served, fell := sl.Stats(); served+fell != callers*perCaller {
		t.Fatalf("served %d + fallback %d != %d", served, fell, callers*perCaller)
	}
	if d := sl.Decisions(); len(d) != 0 {
		t.Fatalf("fixed pool took %d scaling decisions over %d epochs: %+v",
			len(d), callers*perCaller/cfg.EpochCalls, d)
	}
	if ecallW, ocallW := sl.Workers(); ecallW != 2 || ocallW != 0 {
		t.Fatalf("fixed pool runs %d ecall and %d ocall workers, want 2 and 0", ecallW, ocallW)
	}
}

// TestSwitchlessConfigRejectsHugeQueue: a parsed configuration whose
// queue depth the runtime would refuse is refused at parse time, with
// an error rather than an allocation the process cannot survive.
func TestSwitchlessConfigRejectsHugeQueue(t *testing.T) {
	if _, err := sdk.ParseSwitchlessConfig([]byte(`{"queue_depth": 1099511627776}`)); err == nil {
		t.Fatal("a 2^40 queue depth parsed without error")
	}
	cfg, err := sdk.ParseSwitchlessConfig([]byte(`{"queue_depth": 4096}`))
	if err != nil {
		t.Fatalf("the largest accepted queue depth: %v", err)
	}
	if cfg.QueueDepth != 4096 {
		t.Fatalf("queue depth = %d, want 4096", cfg.QueueDepth)
	}
}

// TestSwitchlessStartRejectsHugeQueue: a configuration built in Go skips
// the parser, so the runtime's start checks the same bound before it
// allocates any queue.
func TestSwitchlessStartRejectsHugeQueue(t *testing.T) {
	f := newSLFixture(t)
	freeBefore := f.app.Enclave().FreeTCS()
	if _, err := f.h.URTS.StartSwitchless(f.app, fixedPool(1, 1<<40), f.otab); err == nil {
		t.Fatal("switchless started with a 2^40 queue depth")
	}
	if got := f.app.Enclave().FreeTCS(); got != freeBefore {
		t.Fatalf("rejected start holds %d TCSs", freeBefore-got)
	}
	if f.app.Switchless() != nil {
		t.Fatal("rejected start installed itself on the enclave")
	}
}

// TestSwitchlessEligible pins the one rule both the runtime's routing
// and the lint's candidate filters use.
func TestSwitchlessEligible(t *testing.T) {
	iface := edl.NewInterface()
	must := func(f *edl.Func, err error) *edl.Func {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		f    *edl.Func
		want bool
	}{
		{must(iface.AddEcall("ecall_pub", true)), true},
		{must(iface.AddEcall("ecall_priv", false)), false},
		{must(iface.AddOcall("ocall_plain", nil)), true},
		{must(iface.AddOcall("ocall_reentrant", []string{"ecall_priv"})), false},
		{must(iface.AddOcall(sdk.OcallThreadWait, nil)), false},
	} {
		if got := sdk.SwitchlessEligible(tc.f); got != tc.want {
			t.Errorf("SwitchlessEligible(%s) = %v, want %v", tc.f.Name, got, tc.want)
		}
	}
}
