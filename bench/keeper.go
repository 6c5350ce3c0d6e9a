package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/live"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/perf/staticlint"
	"sgxperf/internal/workloads/keeper"
)

// keeperBench is the paper's record-then-analyse path on a real
// multi-threaded workload: SecureKeeper with 8 clients is recorded under
// the logger and saved, a live collector attaches afterwards and replays
// the backlog, the report is computed from the saved file, and the
// hybrid interface lint joins the trace. The logger, the live collector,
// the event store's save and load, and the resident analyser do the
// work. The trace is not stream-sorted, so only the resident analyser
// can report it; the serve daemon and the source lint are not used.
type keeperBench struct {
	e       *env
	iface   *edl.Interface
	payload int
	path    string
}

// keeperRep is one repetition's stage timings and sizes.
type keeperRep struct {
	op, record, flush, save, live, report, hybrid time.Duration
	events, fileBytes, docBytes, stats, findings  int
	chunks                                        int
	peakMB                                        float64
}

func newKeeperBench(e *env) (bench, error) {
	iface, err := keeper.Interface()
	if err != nil {
		return nil, err
	}
	k := &keeperBench{
		e:     e,
		iface: iface,
		// The seed picks the nominal payload size within ±3% of the
		// workload's 1 KiB default: the payload bytes, and so the
		// recorded durations, differ per seed while the crypto work each
		// request costs stays the same size.
		payload: 992 + newRNG(e.cfg.seed).intn(65),
		path:    filepath.Join(e.dir, "keeper.evc"),
	}
	// One checked warm-up repetition: stub tables, the worker pool and
	// the page cache are filled before anything is timed.
	if _, err := k.rep(-1, false); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *keeperBench) close() {}

func (k *keeperBench) runOptions() keeper.RunOptions {
	return keeper.RunOptions{Clients: 8, Duration: k.e.cfg.size.keeperVirtual, PayloadBase: k.payload}
}

func (k *keeperBench) measure(budget time.Duration) error {
	e := k.e
	var records, bares []float64
	start := time.Now()
	for i := 0; i < e.cfg.size.minOps || time.Since(start) < budget; i++ {
		r, err := k.rep(int64(i), e.traced(i))
		if err != nil {
			return err
		}
		e.opDone(i, r.op)
		ev := float64(r.events)
		e.res.add("throughput_per_s", "1/s", ev/r.op.Seconds())
		e.res.add("peak_heap_mb", "MB", r.peakMB)
		e.res.add("record_ns_per_event", "ns/event", float64(r.record+r.flush+r.save)/ev)
		e.res.add("live_snapshot_s", "s", r.live.Seconds())
		e.res.add("report_s", "s", r.report.Seconds())
		e.res.add("hybrid_lint_ms", "ms", ms(r.hybrid))
		e.res.add("trace_bytes_per_event", "B/event", float64(r.fileBytes)/ev)
		e.res.add("events", "count", ev)
		e.res.add("apiv1_bytes", "B", float64(r.docBytes))
		e.res.add("distinct_calls", "count", float64(r.stats))
		e.res.add("hybrid_findings", "count", float64(r.findings))
		e.res.add("chunks", "count", float64(r.chunks))
		if e.traced(i) {
			// Control: the same run with no logger attached.
			runtime.GC()
			bare, err := k.bareRun()
			if err != nil {
				return err
			}
			records = append(records, r.record.Seconds())
			bares = append(bares, bare.Seconds())
			e.res.add("sim_bare_run_s", "s", bare.Seconds())
		}
	}
	l := e.res.layer
	l["logger.events_per_op"] = e.res.median("events")
	l["evstore.bytes_per_event"] = e.res.median("trace_bytes_per_event")
	l["evstore.chunks_per_op"] = e.res.median("chunks")
	l["analyzer.events_per_op"] = e.res.median("events")
	l["analyzer.distinct_calls"] = e.res.median("distinct_calls")
	l["apiv1.bytes_per_op"] = e.res.median("apiv1_bytes")
	l["staticlint.findings_per_op"] = e.res.median("hybrid_findings")
	if b := quantile(bares, 0.5); b > 0 {
		l["logger.overhead_frac"] = quantile(records, 0.5)/b - 1
	}
	return nil
}

// rep records, replays, reports and lints once. Its checks run after the
// operation's clock has stopped.
func (k *keeperBench) rep(req int64, traced bool) (*keeperRep, error) {
	r := &keeperRep{}
	hp := startHeapPeak()
	op := k.e.tr.root("bench.op", req, traced)

	s := op.child("sim.setup")
	h, err := host.New()
	if err != nil {
		return nil, err
	}
	s.end()
	s = op.child("logger.attach")
	l, err := logger.Attach(h, logger.Options{Workload: "securekeeper"})
	if err != nil {
		return nil, err
	}
	defer l.Detach()
	s.end()
	s = op.child("sim.setup")
	w, err := keeper.New(h, h.NewContext("main"))
	if err != nil {
		return nil, err
	}
	s.end()
	s = op.child("logger.record")
	run, err := w.Run(k.runOptions())
	if err != nil {
		return nil, err
	}
	r.record = s.end()
	s = op.child("logger.flush")
	l.Flush()
	r.flush = s.end()
	recorded := l.Trace()
	s = op.child("evstore.save")
	if err := recorded.SaveFile(k.path); err != nil {
		return nil, err
	}
	r.save = s.end()

	liveStart := time.Now()
	s = op.child("live.attach")
	col, err := live.Attach(l, live.Options{})
	if err != nil {
		return nil, err
	}
	defer col.Close()
	s.end()
	s = op.child("live.drain")
	col.Drain()
	s.end()
	s = op.child("live.snapshot")
	snap := col.Snapshot()
	s.end()
	r.live = time.Since(liveStart)

	reportStart := time.Now()
	s = op.child("evstore.load")
	loaded, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	if err := loaded.LoadFile(k.path); err != nil {
		return nil, err
	}
	s.end()
	s = op.child("analyzer.new")
	a, err := analyzer.New(loaded, analyzer.Options{})
	if err != nil {
		return nil, err
	}
	s.end()
	s = op.child("analyzer.analyze")
	rep := a.Analyze()
	s.end()
	s = op.child("apiv1.marshal")
	doc, err := apiv1.Marshal(apiv1.FromReport(rep))
	if err != nil {
		return nil, err
	}
	s.end()
	r.report = time.Since(reportStart)
	s = op.child("staticlint.hybrid")
	lr, err := staticlint.Hybrid(k.iface, loaded, staticlint.Options{})
	if err != nil {
		return nil, err
	}
	r.hybrid = s.end()
	r.op = op.end()
	r.peakMB = hp.finish()

	r.events = traceEvents(recorded)
	r.docBytes, r.stats, r.findings = len(doc), len(rep.Stats), len(lr.Findings)
	r.chunks = recorded.Ecalls.NumChunks() + recorded.Ocalls.NumChunks() + recorded.Syncs.NumChunks() +
		recorded.AEXs.NumChunks() + recorded.Paging.NumChunks()
	fi, err := os.Stat(k.path)
	if err != nil {
		return nil, err
	}
	r.fileBytes = int(fi.Size())
	return r, k.check(req, run.Extra, recorded, snap, doc, lr)
}

// check verifies one repetition's outputs: the recorder saw every ecall
// the workload issued, the live view counts what the trace holds, the
// report read back from disk is the report of the trace in memory, and
// the hybrid lint joined the trace's call counts. The warm-up repetition
// also confirms the recording is not stream-sorted: the streaming fold
// refuses it, which is why this workload reports through the resident
// analyser.
func (k *keeperBench) check(req int64, extra map[string]float64, recorded *events.Trace, snap live.Snapshot, doc []byte, lr *staticlint.Report) error {
	res := k.e.res
	// Each client connects with one ecall; each store operation costs a
	// client ecall and a store ecall.
	want := int(extra["clients"]) + 2*int(extra["zk_ops"])
	res.check(recorded.Ecalls.Len() == want, "keeper: recorded %d ecalls, the workload issued %d", recorded.Ecalls.Len(), want)
	c := snap.Counts
	res.check(c.Ecalls == recorded.Ecalls.Len() && c.Ocalls == recorded.Ocalls.Len() &&
		c.Syncs == recorded.Syncs.Len() && c.AEXs == recorded.AEXs.Len() && c.Paging == recorded.Paging.Len(),
		"keeper: live counts %+v differ from the trace's", c)

	a, err := analyzer.New(recorded, analyzer.Options{})
	if err != nil {
		return err
	}
	mem, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
	if err != nil {
		return err
	}
	res.check(bytes.Equal(doc, mem), "keeper: report from the saved file differs from the in-memory trace's")

	counts := make(map[string]int)
	for _, tab := range []func(func(int, events.CallEvent) bool){recorded.Ecalls.Scan, recorded.Ocalls.Scan} {
		tab(func(_ int, ev events.CallEvent) bool {
			counts[ev.Name]++
			return true
		})
	}
	joined := len(lr.Findings) > 0
	for _, f := range lr.Findings {
		joined = joined && f.Observed == counts[f.Call]
	}
	res.check(joined, "keeper: hybrid lint findings do not carry the trace's call counts")
	if req < 0 {
		_, err := analyzer.AnalyzeStream(analyzer.NewTraceSource(recorded), analyzer.Options{})
		res.check(errors.Is(err, analyzer.ErrUnsorted), "keeper: the streaming fold accepted the recording: %v", err)
	}
	return nil
}

// bareRun times the same workload run with no logger attached.
func (k *keeperBench) bareRun() (time.Duration, error) {
	h, err := host.New()
	if err != nil {
		return 0, err
	}
	w, err := keeper.New(h, h.NewContext("main"))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := w.Run(k.runOptions()); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
