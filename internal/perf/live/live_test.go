package live_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/live"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// app is the instrumented fixture: one enclave with short ecalls (SISC
// material), an ecall issuing a nested ocall, a long ecall (AEX
// material), a mutex-guarded ecall (sync events under contention), and a
// heap-touching ecall (paging material).
type app struct {
	h       *host.Host
	ctx     *sgx.Context
	appEnc  *sdk.AppEnclave
	proxies map[string]sdk.Proxy
}

func newApp(t *testing.T, opts ...host.Option) *app {
	t.Helper()
	h, err := host.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	iface := edl.NewInterface()
	for _, name := range []string{"ecall_noop", "ecall_with_ocall", "ecall_long", "ecall_locked", "ecall_touch"} {
		if _, err := iface.AddEcall(name, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := iface.AddOcall("ocall_noop", nil); err != nil {
		t.Fatal(err)
	}
	var m sdk.Mutex
	impl := map[string]sdk.TrustedFn{
		"ecall_noop": func(env *sdk.Env, args any) (any, error) { return nil, nil },
		"ecall_with_ocall": func(env *sdk.Env, args any) (any, error) {
			return env.Ocall("ocall_noop", nil)
		},
		"ecall_long": func(env *sdk.Env, args any) (any, error) {
			d, _ := args.(time.Duration)
			env.Compute(d)
			return nil, nil
		},
		"ecall_locked": func(env *sdk.Env, args any) (any, error) {
			if err := m.Lock(env); err != nil {
				return nil, err
			}
			hold, _ := args.(time.Duration)
			env.Compute(hold)
			return nil, m.Unlock(env)
		},
		"ecall_touch": func(env *sdk.Env, args any) (any, error) {
			n, _ := args.(int)
			if err := env.Context().HeapReset(); err != nil {
				return nil, err
			}
			v, err := env.Alloc(n)
			if err != nil {
				return nil, err
			}
			return nil, env.Touch(v, n, true)
		},
	}
	ctx := h.NewContext("main")
	appEnc, err := h.URTS.CreateEnclave(ctx, sgx.Config{Name: "live", NumTCS: 6}, iface, impl)
	if err != nil {
		t.Fatal(err)
	}
	otab, err := sdk.BuildOcallTable(iface, h.URTS, map[string]sdk.OcallFn{
		"ocall_noop": func(ctx *sgx.Context, args any) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &app{h: h, ctx: ctx, appEnc: appEnc, proxies: sdk.Proxies(appEnc, h.Proc, otab)}
}

func (a *app) call(t *testing.T, ctx *sgx.Context, name string, args any) {
	t.Helper()
	if _, err := a.proxies[name](ctx, args); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// runWorkload exercises every detector: batches of short ecalls, nested
// ocalls, mutex contention across threads, one long ecall crossing timer
// quanta, and a heap sweep that pages against a second enclave.
func (a *app) runWorkload(t *testing.T) {
	t.Helper()
	for w := 0; w < 3; w++ {
		if err := a.h.Spawn("worker", func(ctx *sgx.Context) {
			for i := 0; i < 100; i++ {
				a.call(t, ctx, "ecall_noop", nil)
			}
			for i := 0; i < 30; i++ {
				a.call(t, ctx, "ecall_with_ocall", nil)
			}
			for i := 0; i < 20; i++ {
				a.call(t, ctx, "ecall_locked", 50*time.Microsecond)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	a.h.Wait()
	a.call(t, a.ctx, "ecall_long", 9*time.Millisecond)
	// A second enclave crowds the EPC; sweeping the heap then pages.
	iface := edl.NewInterface()
	if _, err := iface.AddEcall("e", true); err != nil {
		t.Fatal(err)
	}
	if _, err := a.h.URTS.CreateEnclave(a.ctx, sgx.Config{HeapBytes: 64 * 4096}, iface,
		map[string]sdk.TrustedFn{"e": func(env *sdk.Env, args any) (any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	a.call(t, a.ctx, "ecall_touch", 64*4096)
}

// checkEquivalence asserts a drained live snapshot equals the post-mortem
// report over the same trace, field by field.
func checkEquivalence(t *testing.T, snap live.Snapshot, l *logger.Logger, opts analyzer.Options) {
	t.Helper()
	an, err := analyzer.New(l.Trace(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := an.Analyze()
	if snap.Workload != rep.Workload {
		t.Errorf("workload: live %q, post-mortem %q", snap.Workload, rep.Workload)
	}
	if !reflect.DeepEqual(snap.Stats, rep.Stats) {
		t.Errorf("stats diverge:\nlive: %+v\npost: %+v", snap.Stats, rep.Stats)
	}
	if !reflect.DeepEqual(snap.Findings, rep.Findings) {
		t.Errorf("findings diverge:\nlive: %+v\npost: %+v", snap.Findings, rep.Findings)
	}
	if !reflect.DeepEqual(snap.Paging, rep.Paging) {
		t.Errorf("paging diverges:\nlive: %+v\npost: %+v", snap.Paging, rep.Paging)
	}
	if !reflect.DeepEqual(snap.WakeGraph, rep.WakeGraph) {
		t.Errorf("wake graph diverges:\nlive: %+v\npost: %+v", snap.WakeGraph, rep.WakeGraph)
	}
	if !reflect.DeepEqual(snap.Switchless, rep.Switchless) {
		t.Errorf("switchless stats diverge:\nlive: %+v\npost: %+v", snap.Switchless, rep.Switchless)
	}
}

// TestLiveEqualsPostMortem is the golden test of the streaming engine:
// with the collector attached from the start, a snapshot after quiescence
// must equal the analyser's report over the same trace.
func TestLiveEqualsPostMortem(t *testing.T) {
	a := newApp(t, host.WithEPCCapacity(160))
	l, err := logger.Attach(a.h, logger.Options{Workload: "golden", AEX: logger.AEXTrace})
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Attach(l, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a.runWorkload(t)
	c.Drain()
	snap := c.Snapshot()
	checkEquivalence(t, snap, l, analyzer.Options{})

	// Sanity on the streaming side: the detectors actually had material.
	if snap.Counts.Ecalls == 0 || snap.Counts.Ocalls == 0 || snap.Counts.AEXs == 0 || snap.Counts.Paging == 0 {
		t.Fatalf("workload left a detector without events: %+v", snap.Counts)
	}
	if len(snap.Findings) == 0 {
		t.Fatal("no findings from a workload built to trigger them")
	}
	if snap.Rates.Ecalls <= 0 {
		t.Fatalf("ecall rate = %v, want > 0", snap.Rates.Ecalls)
	}
}

// TestLiveEqualsPostMortemPerEnclave repeats the golden comparison with
// the analysis restricted to the first enclave.
func TestLiveEqualsPostMortemPerEnclave(t *testing.T) {
	a := newApp(t, host.WithEPCCapacity(160))
	l, err := logger.Attach(a.h, logger.Options{Workload: "golden-enclave"})
	if err != nil {
		t.Fatal(err)
	}
	eid := a.appEnc.ID()
	c, err := live.Attach(l, live.Options{Enclave: eid})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a.runWorkload(t)
	c.Drain()
	checkEquivalence(t, c.Snapshot(), l, analyzer.Options{Enclave: eid})
}

// TestLiveAttachMidRunReplays attaches the collector halfway through the
// workload: its first read must cover the first half, so the drained
// snapshot still equals the post-mortem report.
func TestLiveAttachMidRunReplays(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{Workload: "midrun", SkipPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		a.call(t, a.ctx, "ecall_noop", nil)
	}
	for i := 0; i < 10; i++ {
		a.call(t, a.ctx, "ecall_with_ocall", nil)
	}

	c, err := live.Attach(l, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 150; i++ {
		a.call(t, a.ctx, "ecall_noop", nil)
	}
	for i := 0; i < 10; i++ {
		a.call(t, a.ctx, "ecall_with_ocall", nil)
	}
	c.Drain()
	snap := c.Snapshot()
	if snap.Counts.Ecalls != 320 {
		t.Fatalf("collector saw %d ecalls, want 320 (replay + live)", snap.Counts.Ecalls)
	}
	checkEquivalence(t, snap, l, analyzer.Options{})
}

// TestLiveSnapshotWithoutDrain samples the collector the way a
// dashboard does, with no Drain. In the first phase the calls are still
// buffered in the logger's shard (the default batch is 256 events), so
// Snapshot covers them only because its own read flushes the shards; in
// the second the logger has flushed before Snapshot reads.
func TestLiveSnapshotWithoutDrain(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{SkipPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Attach(l, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for phase, flush := range []bool{false, true} {
		for i := 0; i < 40; i++ {
			a.call(t, a.ctx, "ecall_noop", nil)
		}
		if flush {
			l.Flush()
		}
		want := 40 * (phase + 1)
		snap := c.Snapshot()
		if snap.Counts.Ecalls != want || snap.Counts.Ocalls != 0 {
			t.Fatalf("phase %d: snapshot without Drain counts %+v, want %d ecalls", phase, snap.Counts, want)
		}
		if len(snap.Stats) != 1 || snap.Stats[0].Name != "ecall_noop" || snap.Stats[0].Count != want {
			t.Fatalf("phase %d: snapshot without Drain stats %+v, want one ecall_noop row of %d", phase, snap.Stats, want)
		}
	}
}

// TestLiveEqualsPostMortemLateChildren builds a trace the SDK cannot
// record: every ocall names an ecall as its Parent but starts 1µs after
// that ecall ended, and the ocalls reach the tables before the ecalls,
// as a flush may deliver them. The drained snapshot must still equal
// the analyser's report, which counts such late children as unparented.
func TestLiveEqualsPostMortemLateChildren(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{Workload: "late-children", SkipPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Attach(l, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tr := l.Trace()
	us := tr.Frequency().Cycles(time.Microsecond)
	var ecalls, ocalls []events.CallEvent
	for i := 0; i < 20; i++ {
		start := vtime.Cycles(i+1) * 100 * us
		e := events.CallEvent{
			ID: tr.NextID(), Kind: events.KindEcall, Enclave: a.appEnc.ID(), Thread: 1,
			Name: "ecall_p", Start: start, End: start + 2*us, Parent: events.NoEvent,
		}
		ecalls = append(ecalls, e)
		ocalls = append(ocalls, events.CallEvent{
			ID: tr.NextID(), Kind: events.KindOcall, Enclave: e.Enclave, Thread: 1,
			Name: "ocall_late", Start: e.End + us, End: e.End + 2*us, Parent: e.ID,
		})
	}
	tr.Ocalls.BatchInsert(ocalls)
	tr.Ecalls.BatchInsert(ecalls)
	c.Drain()
	checkEquivalence(t, c.Snapshot(), l, analyzer.Options{})
}

// TestLiveSnapshotsDuringRun polls snapshots while recording continues:
// they must be internally consistent and monotonic in event counts.
func TestLiveSnapshotsDuringRun(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{SkipPaging: true, FlushEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Attach(l, live.Options{Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prev := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 64; i++ {
			a.call(t, a.ctx, "ecall_noop", nil)
		}
		c.Drain()
		snap := c.Snapshot()
		if snap.Counts.Ecalls < prev {
			t.Fatalf("ecall count went backwards: %d -> %d", prev, snap.Counts.Ecalls)
		}
		prev = snap.Counts.Ecalls
		if len(snap.Stats) != 1 || snap.Stats[0].Count != snap.Counts.Ecalls {
			t.Fatalf("round %d: stats %+v vs count %d", round, snap.Stats, snap.Counts.Ecalls)
		}
	}
	if prev != 5*64 {
		t.Fatalf("final count %d, want %d", prev, 5*64)
	}
}

// TestLiveSnapshotsConcurrentWithRecording samples from two goroutines
// while three threads record: every sampler sees its counts grow, and
// the drained snapshot still equals the post-mortem report. Run it
// under the race detector; the snapshot folds the rows it read outside
// the collector's lock while the logger appends more.
func TestLiveSnapshotsConcurrentWithRecording(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{SkipPaging: true, FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Attach(l, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var samplers sync.WaitGroup
	for g := 0; g < 2; g++ {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := c.Snapshot().Counts.Ecalls
				if n < prev {
					t.Errorf("ecall count went backwards: %d -> %d", prev, n)
					return
				}
				prev = n
			}
		}()
	}
	for w := 0; w < 3; w++ {
		if err := a.h.Spawn("worker", func(ctx *sgx.Context) {
			for i := 0; i < 100; i++ {
				a.call(t, ctx, "ecall_noop", nil)
			}
			for i := 0; i < 20; i++ {
				a.call(t, ctx, "ecall_with_ocall", nil)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	a.h.Wait()
	close(stop)
	samplers.Wait()
	c.Drain()
	checkEquivalence(t, c.Snapshot(), l, analyzer.Options{})
}

// TestLiveAttachDetachedLogger verifies the sentinel error contract.
func TestLiveAttachDetachedLogger(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{SkipPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Detach()
	if _, err := live.Attach(l, live.Options{}); !errors.Is(err, logger.ErrDetached) {
		t.Fatalf("attach to detached logger: err = %v, want errors.Is ErrDetached", err)
	}
}

// TestLiveCloseIsIdempotent closes twice and snapshots after close.
func TestLiveCloseIsIdempotent(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{SkipPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Attach(l, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.call(t, a.ctx, "ecall_noop", nil)
	c.Drain()
	c.Close()
	c.Close()
	if snap := c.Snapshot(); snap.Counts.Ecalls != 1 {
		t.Fatalf("snapshot after close: %+v", snap.Counts)
	}
	// New events after close are not read.
	a.call(t, a.ctx, "ecall_noop", nil)
	l.Flush()
	if snap := c.Snapshot(); snap.Counts.Ecalls != 1 {
		t.Fatalf("closed collector still receiving events: %+v", snap.Counts)
	}
}
