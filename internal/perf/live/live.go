// Package live makes the analysis available while a workload runs: a
// Collector reads a recording logger's event tables, and a Snapshot of
// per-call statistics, anti-pattern findings (SISC/SDSC/SNC/SSC,
// paging) and sliding-window event rates can be taken at any point of
// the run, without stopping the workload.
//
// # One engine
//
// The collector keeps no analysis state of its own. It keeps a row
// count and sliding-window rate ring per table, and the tables' chunks
// as of its last read: chunk-backed slices that alias the rows the
// append-only event store retains anyway, so nothing is copied. Every
// Snapshot folds those chunks through analyzer.AnalyzeUnordered, the
// entry point Analyzer.Analyze folds a resident trace through, and
// each table yields its rows in the store's own order. After a workload
// quiesces, Snapshot therefore equals the analyser's report over the
// same trace (same stats, findings, paging summary, wake graph and
// switchless summary) by construction, on every trace. The price is
// that each Snapshot costs a fold of every row so far, O(recorded
// events).
//
// # Concurrency
//
// The collector does nothing until it is read: no callback runs on the
// recording path. Snapshot, Drain, Close and EventsSeen each catch up
// on the calling goroutine. A catch-up reads every table's chunks
// (evstore.Table.Chunks), which first flushes the rows still buffered
// in the logger's per-thread shards, feeds the rate rings the rows past
// each table's count, and moves the count to the table's length. Any
// goroutine may call Snapshot at any time: it covers every event
// recorded before it started, and it folds exactly the rows its counts
// describe.
package live

import (
	"fmt"
	"sync"
	"time"

	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// Options configures a collector.
type Options struct {
	// Weights are the detector thresholds (zero value: the paper's
	// defaults, analyzer.DefaultWeights).
	Weights analyzer.Weights
	// Enclave restricts call statistics and findings to one enclave's
	// events (0 = all), mirroring analyzer.Options.Enclave.
	Enclave sgx.EnclaveID
	// Window is the width of the sliding window behind the event rates
	// (default 1s of virtual time).
	Window time.Duration
}

// Collector is a live view of the analysis over a recording logger.
type Collector struct {
	tr   *events.Trace
	opts Options

	freq       vtime.Frequency
	transition vtime.Cycles
	workload   string

	// mu guards everything below and serialises catch-up.
	mu sync.Mutex
	// closed freezes the collector at its last catch-up.
	closed bool
	// counts holds each table's row count as of the last catch-up.
	counts Counts
	// The chunks of the tables the analysis reads, as of the last
	// catch-up: exactly the rows counts describes.
	ecalls, ocalls analyzer.Chunks[events.CallEvent]
	syncs          analyzer.Chunks[events.SyncEvent]
	paging         analyzer.Chunks[events.PagingEvent]
	switchless     analyzer.Chunks[events.SwitchlessEvent]

	ecallRing, ocallRing, aexRing, pageRing ring
}

// Attach starts a collector on the logger's trace. It reads nothing yet:
// its first catch-up reads each table from the first row, so a collector
// attached mid-run still observes the full trace exactly once. Attaching
// to a detached logger fails with an error wrapping logger.ErrDetached.
func Attach(l *logger.Logger, opts Options) (*Collector, error) {
	if l.Detached() {
		return nil, fmt.Errorf("live: attach: %w", logger.ErrDetached)
	}
	if opts.Weights == (analyzer.Weights{}) {
		opts.Weights = analyzer.DefaultWeights()
	}
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	tr := l.Trace()
	c := &Collector{
		tr:         tr,
		opts:       opts,
		freq:       tr.Frequency(),
		transition: tr.TransitionCycles(),
	}
	if tr.Meta.Len() > 0 {
		c.workload = tr.Meta.At(0).Workload
	}
	width := max(c.freq.Cycles(opts.Window)/ringBuckets, 1)
	for _, r := range []*ring{&c.ecallRing, &c.ocallRing, &c.aexRing, &c.pageRing} {
		r.width = width
	}
	return c, nil
}

// catchUpLocked reads every table the collector follows, unless it is
// closed. Each read flushes the logger's shards first, so the catch-up
// covers every event recorded before it started. Callers hold c.mu.
func (c *Collector) catchUpLocked() {
	if c.closed {
		return
	}
	c.ecalls = pull(c.tr.Ecalls, &c.counts.Ecalls, func(ev *events.CallEvent) { c.ecallRing.add(ev.End) })
	c.ocalls = pull(c.tr.Ocalls, &c.counts.Ocalls, func(ev *events.CallEvent) { c.ocallRing.add(ev.End) })
	c.syncs = pull(c.tr.Syncs, &c.counts.Syncs, nil)
	pull(c.tr.AEXs, &c.counts.AEXs, func(ev *events.AEXEvent) { c.aexRing.add(ev.Time) })
	c.paging = pull(c.tr.Paging, &c.counts.Paging, func(ev *events.PagingEvent) { c.pageRing.add(ev.Time) })
	c.switchless = pull(c.tr.Switchless, &c.counts.Switchless, nil)
}

// pull reads one table's chunks, hands each row past the first *seen to
// add (if not nil) in the table's order, and moves *seen to the table's
// row count.
func pull[T any](t *evstore.Table[T], seen *int, add func(*T)) [][]T {
	chunks := t.Chunks()
	n := 0
	for _, rows := range chunks {
		if add != nil {
			for i := max(*seen-n, 0); i < len(rows); i++ {
				add(&rows[i])
			}
		}
		n += len(rows)
	}
	*seen = n
	return chunks
}

// Drain catches up with everything recorded so far, the logger's
// per-thread buffers included. After a workload has quiesced, Snapshot
// following Drain reflects the complete trace.
func (c *Collector) Drain() {
	c.mu.Lock()
	c.catchUpLocked()
	c.mu.Unlock()
}

// Close catches up one last time and detaches the collector from the
// trace: later Snapshots report that frozen prefix. Close is
// idempotent.
func (c *Collector) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catchUpLocked()
	c.closed = true
}

// EventsSeen catches up and reports how many events (over all tables)
// the collector has observed so far.
func (c *Collector) EventsSeen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catchUpLocked()
	n := c.counts
	return int64(n.Ecalls + n.Ocalls + n.Syncs + n.AEXs + n.Paging + n.Switchless)
}
