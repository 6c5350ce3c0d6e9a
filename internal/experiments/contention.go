package experiments

import (
	"fmt"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
)

// ContentionRow is one measurement of the logger's recording pipeline
// under multi-threaded load: N simulated TCS threads hammering short
// ecalls while the logger records every event. Unlike the paper's virtual
// time experiments, the interesting number here is wall-clock: how fast
// the recording pipeline itself can absorb events from concurrent
// threads (§4.1: per-thread buffers keep the probe cost flat as threads
// are added).
type ContentionRow struct {
	Threads      int           `json:"threads"`
	Events       int           `json:"events"`
	Wall         time.Duration `json:"wall_ns"`
	EventsPerSec float64       `json:"events_per_sec"`
	NsPerEvent   float64       `json:"ns_per_event"`
}

// RunLoggerContention runs threads × opsPerThread short ecalls against one
// enclave with the logger attached and reports recording throughput.
// opsPerThread ≤ 0 selects a default.
func RunLoggerContention(threads, opsPerThread int) (ContentionRow, error) {
	if threads <= 0 {
		threads = 1
	}
	if opsPerThread <= 0 {
		opsPerThread = 2000
	}
	h, err := host.New()
	if err != nil {
		return ContentionRow{}, err
	}
	l, err := logger.Attach(h, logger.Options{Workload: "contention", SkipPaging: true})
	if err != nil {
		return ContentionRow{}, err
	}
	defer l.Detach()

	iface := edl.NewInterface()
	if _, err := iface.AddEcall("ecall_short", true); err != nil {
		return ContentionRow{}, err
	}
	impl := map[string]sdk.TrustedFn{
		"ecall_short": func(env *sdk.Env, args any) (any, error) {
			env.Compute(500 * time.Nanosecond)
			return nil, nil
		},
	}
	ctx := h.NewContext("builder")
	app, err := h.URTS.CreateEnclave(ctx, sgx.Config{
		Name:   "contention",
		NumTCS: threads + 1,
	}, iface, impl)
	if err != nil {
		return ContentionRow{}, err
	}
	otab, err := sdk.BuildOcallTable(iface, h.URTS, nil)
	if err != nil {
		return ContentionRow{}, err
	}
	proxy := sdk.MustProxy(sdk.Proxies(app, h.Proc, otab), "ecall_short")

	errs := make(chan error, threads)
	start := time.Now()
	for w := 0; w < threads; w++ {
		if err := h.Spawn(fmt.Sprintf("hammer-%d", w), func(ctx *sgx.Context) {
			for i := 0; i < opsPerThread; i++ {
				if _, err := proxy(ctx, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}); err != nil {
			return ContentionRow{}, err
		}
	}
	h.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return ContentionRow{}, err
		}
	}

	events := l.Trace().Ecalls.Len()
	if want := threads * opsPerThread; events != want {
		return ContentionRow{}, fmt.Errorf("contention: recorded %d ecall events, want %d", events, want)
	}
	row := ContentionRow{Threads: threads, Events: events, Wall: wall}
	if wall > 0 {
		row.EventsPerSec = float64(events) / wall.Seconds()
		row.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
	}
	return row, nil
}
