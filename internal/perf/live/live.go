// Package live makes the analysis available while a workload runs: a
// Collector subscribes to a recording logger's event tables, and a
// Snapshot of per-call statistics, anti-pattern findings
// (SISC/SDSC/SNC/SSC, paging) and sliding-window event rates can be
// taken at any point of the run, without stopping the workload.
//
// # One engine
//
// The collector keeps no analysis state of its own. It stores the
// batches the tables deliver — chunk-backed subslices that alias the
// rows the append-only event store retains anyway, so nothing is
// copied — next to per-table counts and rate rings. Every Snapshot
// folds all delivered rows through analyzer.AnalyzeUnordered, the entry
// point Analyzer.Analyze folds a resident trace through, and each table
// delivers its rows in the store's own order. After a workload quiesces
// and Drain returns, Snapshot therefore equals the analyser's report
// over the same trace (same stats, findings, paging summary, wake graph
// and switchless summary) by construction, on every trace. The price is
// that each Snapshot costs a fold of everything delivered so far,
// O(delivered events).
//
// # Concurrency
//
// Table subscribers run under the table's write lock, on the recording
// hot path, so they only enqueue the delivered batches. Snapshot,
// Drain, Close and EventsSeen take that backlog in on the calling
// goroutine; no background goroutine competes with the recording
// threads for CPU. Any goroutine may call Snapshot at any time: it
// covers every batch the tables delivered before it started. Rows still
// buffered in the logger's per-thread shards are not delivered yet;
// Drain flushes them first.
package live

import (
	"fmt"
	"sync"
	"time"

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

// batch is one table delivery, exactly one field set.
type batch struct {
	ecalls, ocalls []events.CallEvent
	syncs          []events.SyncEvent
	aexs           []events.AEXEvent
	paging         []events.PagingEvent
	switchless     []events.SwitchlessEvent
}

// intake is the queue between the table subscribers (producers, on the
// recording hot path) and the demand-driven catch-up (consumer).
type intake struct {
	mu     sync.Mutex
	q      []batch
	closed bool
}

func (i *intake) push(b batch) {
	i.mu.Lock()
	if !i.closed {
		i.q = append(i.q, b)
	}
	i.mu.Unlock()
}

// take removes and returns the queued batches.
func (i *intake) take() []batch {
	i.mu.Lock()
	q := i.q
	i.q = nil
	i.mu.Unlock()
	return q
}

// Collector is a live view of the analysis over a recording logger.
type Collector struct {
	l    *logger.Logger
	opts Options

	freq       vtime.Frequency
	transition vtime.Cycles
	workload   string

	in      *intake
	cancels []func()
	closeMu sync.Mutex
	closed  bool

	// mu guards everything below and serialises catch-up.
	mu     sync.Mutex
	counts Counts
	// The delivered rows of the tables the analysis reads, one chunk per
	// delivered batch, in delivery order.
	ecalls, ocalls analyzer.Chunks[events.CallEvent]
	syncs          analyzer.Chunks[events.SyncEvent]
	paging         analyzer.Chunks[events.PagingEvent]
	switchless     analyzer.Chunks[events.SwitchlessEvent]

	ecallRing, ocallRing, aexRing, pageRing ring
}

// Attach starts a collector on the logger's trace. Events already
// recorded are replayed into the collector atomically with the
// subscription, so a collector attached mid-run still observes the full
// trace exactly once. Attaching to a detached logger fails with an error
// wrapping logger.ErrDetached.
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
	// Reading the trace flushes all shard buffers; anything recorded up to
	// here is in the tables and covered by the subscription replays below.
	tr := l.Trace()
	c := &Collector{
		l:          l,
		opts:       opts,
		freq:       tr.Frequency(),
		transition: tr.TransitionCycles(),
		in:         &intake{},
	}
	if tr.Meta.Len() > 0 {
		c.workload = tr.Meta.At(0).Workload
	}
	width := max(c.freq.Cycles(opts.Window)/ringBuckets, 1)
	for _, r := range []*ring{&c.ecallRing, &c.ocallRing, &c.aexRing, &c.pageRing} {
		r.width = width
	}
	c.cancels = append(c.cancels,
		tr.Ecalls.Subscribe(func(rows []events.CallEvent) { c.in.push(batch{ecalls: rows}) }, true),
		tr.Ocalls.Subscribe(func(rows []events.CallEvent) { c.in.push(batch{ocalls: rows}) }, true),
		tr.Syncs.Subscribe(func(rows []events.SyncEvent) { c.in.push(batch{syncs: rows}) }, true),
		tr.AEXs.Subscribe(func(rows []events.AEXEvent) { c.in.push(batch{aexs: rows}) }, true),
		tr.Paging.Subscribe(func(rows []events.PagingEvent) { c.in.push(batch{paging: rows}) }, true),
		tr.Switchless.Subscribe(func(rows []events.SwitchlessEvent) { c.in.push(batch{switchless: rows}) }, true),
	)
	return c, nil
}

// catchUpLocked takes in every queued batch. Pushes racing with the
// catch-up land in the queue and are taken on the next loop iteration;
// the queue is empty when it returns only for batches delivered before
// it started, which is all Drain's contract needs. Callers hold c.mu.
func (c *Collector) catchUpLocked() {
	for {
		q := c.in.take()
		if len(q) == 0 {
			return
		}
		for _, b := range q {
			c.addLocked(b)
		}
	}
}

// addLocked keeps one delivered batch and counts it.
func (c *Collector) addLocked(b batch) {
	switch {
	case b.ecalls != nil:
		c.counts.Ecalls += len(b.ecalls)
		c.ecalls = append(c.ecalls, b.ecalls)
		for i := range b.ecalls {
			c.ecallRing.add(b.ecalls[i].End)
		}
	case b.ocalls != nil:
		c.counts.Ocalls += len(b.ocalls)
		c.ocalls = append(c.ocalls, b.ocalls)
		for i := range b.ocalls {
			c.ocallRing.add(b.ocalls[i].End)
		}
	case b.syncs != nil:
		c.counts.Syncs += len(b.syncs)
		c.syncs = append(c.syncs, b.syncs)
	case b.aexs != nil:
		c.counts.AEXs += len(b.aexs)
		for i := range b.aexs {
			c.aexRing.add(b.aexs[i].Time)
		}
	case b.paging != nil:
		c.counts.Paging += len(b.paging)
		c.paging = append(c.paging, b.paging)
		for i := range b.paging {
			c.pageRing.add(b.paging[i].Time)
		}
	case b.switchless != nil:
		c.counts.Switchless += len(b.switchless)
		c.switchless = append(c.switchless, b.switchless)
	}
}

// Drain flushes the logger's per-thread buffers and takes in everything
// delivered so far. After a workload has quiesced, Snapshot following
// Drain reflects the complete trace.
func (c *Collector) Drain() {
	c.l.Flush()
	c.mu.Lock()
	c.catchUpLocked()
	c.mu.Unlock()
}

// Close detaches the collector from the trace: subscriptions are
// cancelled and the remaining backlog is taken in. The last Snapshot
// stays readable. Close is idempotent.
func (c *Collector) Close() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, cancel := range c.cancels {
		cancel()
	}
	c.mu.Lock()
	c.catchUpLocked()
	c.mu.Unlock()
	c.in.mu.Lock()
	c.in.closed = true
	c.in.mu.Unlock()
}

// EventsSeen reports how many events (over all tables) the collector has
// observed so far.
func (c *Collector) EventsSeen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catchUpLocked()
	n := c.counts
	return int64(n.Ecalls + n.Ocalls + n.Syncs + n.AEXs + n.Paging + n.Switchless)
}
