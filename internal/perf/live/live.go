// Package live implements a streaming analysis engine over a recording
// logger: it subscribes to the event database's tables and maintains the
// analyser's aggregates incrementally as events arrive, so a Snapshot of
// per-call statistics, anti-pattern findings (SISC/SDSC/SNC/SSC, paging)
// and sliding-window event rates is available at any point during a run —
// without stopping the workload or re-scanning the trace.
//
// # Equivalence with the post-mortem analyser
//
// The collector maintains exactly the aggregates the post-mortem analyser
// (internal/perf/analyzer) folds from a finished trace — per-call
// duration histograms, direct-parent offset bands, indirect-parent pair
// gaps, sleep/wake counters, paging coverage — and feeds them through the
// same kernels (analyzer.StatsFromHistogram, MovingFinding,
// ReorderFindings, MergeFindings, SSCFindings, PagingFindings,
// SortFindings). Events may arrive in any order across tables — a nested
// ocall can be delivered before or after its parent ecall depending on
// flush batching — so every cross-event relation is resolved
// symmetrically: whichever side arrives second completes the pair. After
// a workload quiesces and Drain returns, Snapshot is therefore equal to
// the analyser's report over the same trace (same stats, findings, paging
// summary and wake graph); the golden test in this package holds the two
// implementations to that guarantee.
//
// The equality assumes properly nested, SDK-recorded traces. The
// collector resolves a Parent link by event ID whenever both sides have
// arrived; the analyser resolves it only to a parent that is still
// running when the child starts (see analyzer.Analyzer.Analyze). The two
// rules agree whenever every parent spans its children, which the SDK's
// call nesting guarantees.
//
// Durations are kept as histograms, bounded by distinct durations, but
// exact equivalence still costs O(events) memory: call spans are
// retained for parent resolution and indirect-parent grouping. The
// collector is a second reader of the same trace, not a compressed
// sketch.
//
// # Concurrency
//
// Table subscribers run under the table's write lock, on the recording
// hot path. The collector's subscribers therefore only enqueue the
// delivered batches — immutable, chunk-backed subslices, retained
// without copying — into an intake queue. All aggregate maintenance is
// deferred and demand-driven: Snapshot, Drain and Close fold the backlog
// in before doing their work, on the calling goroutine. Recorder
// overhead with a collector attached is one slice append per flushed
// batch, and no background goroutine competes with the recording threads
// for CPU. The backlog itself is nearly free to hold: the queued
// subslices alias rows the append-only event store retains anyway, so an
// unread backlog costs slice headers, not event copies.
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

// arrivedCall is the retained span of one filtered call event.
type arrivedCall struct {
	start, end vtime.Cycles
	adjusted   time.Duration
}

// nameAgg accumulates one call name's statistics inputs.
type nameAgg struct {
	kind     events.CallKind
	count    int
	hist     map[time.Duration]int
	totalAEX int
	reorder  analyzer.ReorderAgg
}

// pendingChild is a call waiting for its direct parent's span.
type pendingChild struct {
	name       string
	start, end vtime.Cycles
}

// groupKey identifies one indirect-parent group (Fig. 4): calls of one
// kind, on one thread, under one direct parent.
type groupKey struct {
	thread int64
	kind   events.CallKind
	parent events.EventID
}

// groupMember is one call in an indirect-parent group, kept sorted by
// (start, id) — the post-mortem analyser's preparation order.
type groupMember struct {
	start, end vtime.Cycles
	id         events.EventID
	name       string
}

// Collector is a live streaming analysis engine attached to a logger.
type Collector struct {
	l    *logger.Logger
	opts Options

	freq       vtime.Frequency
	transition vtime.Cycles
	workload   string
	windowC    vtime.Cycles

	in      *intake
	cancels []func()
	closeMu sync.Mutex
	closed  bool

	// mu guards every aggregate below and serialises catch-up processing.
	mu sync.Mutex

	seen                                         int64 // events processed, all tables
	nEcalls, nOcalls, nSyncs, nAEX, nPage, nSwls int

	perName         map[string]*nameAgg
	arrived         map[events.EventID]arrivedCall
	pendingChildren map[events.EventID][]pendingChild
	groups          map[groupKey][]groupMember

	syncAgg      analyzer.SyncAgg
	pendingWakes map[events.EventID]int
	wakeAgg      map[[2]int64]int
	switchless   map[string]*analyzer.SwitchlessAgg

	paging        analyzer.PagingStats
	cover         map[sgx.ThreadID]*coverSet
	pendingPaging map[sgx.ThreadID][]vtime.Cycles

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

		perName:         make(map[string]*nameAgg),
		arrived:         make(map[events.EventID]arrivedCall),
		pendingChildren: make(map[events.EventID][]pendingChild),
		groups:          make(map[groupKey][]groupMember),
		pendingWakes:    make(map[events.EventID]int),
		wakeAgg:         make(map[[2]int64]int),
		switchless:      make(map[string]*analyzer.SwitchlessAgg),
		cover:           make(map[sgx.ThreadID]*coverSet),
		pendingPaging:   make(map[sgx.ThreadID][]vtime.Cycles),
	}
	c.paging.ByRegion = make(map[string]int)
	if tr.Meta.Len() > 0 {
		c.workload = tr.Meta.At(0).Workload
	}
	c.windowC = c.freq.Cycles(opts.Window)
	width := c.windowC / ringBuckets
	if width < 1 {
		width = 1
	}
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

// catchUpLocked folds every queued batch into the aggregates. Pushes
// racing with the catch-up land in the queue and are taken on the next
// loop iteration; the queue is empty when it returns only for batches
// delivered before it started, which is all Drain's contract needs.
// Callers hold c.mu.
func (c *Collector) catchUpLocked() {
	for {
		q := c.in.take()
		if len(q) == 0 {
			return
		}
		for _, b := range q {
			c.processLocked(b)
		}
	}
}

// Drain flushes the logger's per-thread buffers and folds everything
// delivered so far into the aggregates. After a workload has quiesced,
// Snapshot following Drain reflects the complete trace.
func (c *Collector) Drain() {
	c.l.Flush()
	c.mu.Lock()
	c.catchUpLocked()
	c.mu.Unlock()
}

// Close detaches the collector from the trace: subscriptions are
// cancelled and the remaining backlog is folded in. The last Snapshot
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
	return c.seen
}

// processLocked folds one delivered batch into the aggregates.
func (c *Collector) processLocked(b batch) {
	switch {
	case b.ecalls != nil:
		c.seen += int64(len(b.ecalls))
		c.nEcalls += len(b.ecalls)
		for i := range b.ecalls {
			c.ecallRing.add(b.ecalls[i].End)
			c.addCall(&b.ecalls[i])
		}
	case b.ocalls != nil:
		c.seen += int64(len(b.ocalls))
		c.nOcalls += len(b.ocalls)
		for i := range b.ocalls {
			c.ocallRing.add(b.ocalls[i].End)
			c.addCall(&b.ocalls[i])
		}
	case b.syncs != nil:
		c.seen += int64(len(b.syncs))
		c.nSyncs += len(b.syncs)
		for i := range b.syncs {
			c.addSync(&b.syncs[i])
		}
	case b.aexs != nil:
		c.seen += int64(len(b.aexs))
		c.nAEX += len(b.aexs)
		for i := range b.aexs {
			c.aexRing.add(b.aexs[i].Time)
		}
	case b.paging != nil:
		c.seen += int64(len(b.paging))
		c.nPage += len(b.paging)
		for i := range b.paging {
			c.pageRing.add(b.paging[i].Time)
			c.addPaging(&b.paging[i])
		}
	case b.switchless != nil:
		c.seen += int64(len(b.switchless))
		c.nSwls += len(b.switchless)
		for i := range b.switchless {
			analyzer.SwitchlessFold(c.switchless, &b.switchless[i])
		}
	}
}

// addCall folds one completed call event into every aggregate it feeds:
// the name's duration histogram, its indirect-parent group, the
// direct-parent offset bands (resolving whichever side arrived second),
// pending short-wake checks and pending paging coverage.
func (c *Collector) addCall(ev *events.CallEvent) {
	if c.opts.Enclave != 0 && ev.Enclave != c.opts.Enclave {
		return
	}
	adj := c.freq.Duration(ev.Duration())
	if ev.Kind == events.KindEcall {
		adj = c.freq.Duration(ev.Duration() - c.transition)
	}
	if adj < 0 {
		adj = 0
	}

	na := c.perName[ev.Name]
	if na == nil {
		na = &nameAgg{kind: ev.Kind, hist: make(map[time.Duration]int)}
		c.perName[ev.Name] = na
	}
	na.count++
	na.hist[adj]++
	na.totalAEX += ev.AEXCount

	c.arrived[ev.ID] = arrivedCall{start: ev.Start, end: ev.End, adjusted: adj}
	c.groupInsert(groupKey{int64(ev.Thread), ev.Kind, ev.Parent},
		groupMember{start: ev.Start, end: ev.End, id: ev.ID, name: ev.Name})

	// Direct parent: resolve against an already-arrived parent, or park
	// until the parent's event is delivered.
	if ev.Parent != events.NoEvent {
		if p, ok := c.arrived[ev.Parent]; ok {
			na.reorder.Add(c.freq.Duration(ev.Start-p.start), c.freq.Duration(p.end-ev.End))
		} else {
			c.pendingChildren[ev.Parent] = append(c.pendingChildren[ev.Parent],
				pendingChild{name: ev.Name, start: ev.Start, end: ev.End})
		}
	}
	// ... and the mirror: children that arrived before this parent.
	if kids := c.pendingChildren[ev.ID]; kids != nil {
		for _, k := range kids {
			kn := c.perName[k.name]
			kn.reorder.Add(c.freq.Duration(k.start-ev.Start), c.freq.Duration(ev.End-k.end))
		}
		delete(c.pendingChildren, ev.ID)
	}

	// Wake events that referenced this call before it arrived.
	if n := c.pendingWakes[ev.ID]; n > 0 {
		if adj < c.opts.Weights.SyncShortLimit {
			c.syncAgg.ShortWakes += n
		}
		delete(c.pendingWakes, ev.ID)
	}

	// Paging coverage: this call's span now covers part of its thread's
	// timeline; count pending paging events that fall inside it.
	cs := c.cover[ev.Thread]
	if cs == nil {
		cs = &coverSet{}
		c.cover[ev.Thread] = cs
	}
	cs.add(ev.Start, ev.End)
	if pend := c.pendingPaging[ev.Thread]; len(pend) > 0 {
		rest := pend[:0]
		for _, t := range pend {
			if ev.Start <= t && t <= ev.End {
				c.paging.DuringCalls++
			} else {
				rest = append(rest, t)
			}
		}
		if len(rest) == 0 {
			delete(c.pendingPaging, ev.Thread)
		} else {
			c.pendingPaging[ev.Thread] = rest
		}
	}
}

// groupInsert keeps the group's members ordered by (start, id), the
// analyser's preparation order, whatever order batches arrive in.
func (c *Collector) groupInsert(k groupKey, m groupMember) {
	g := c.groups[k]
	i := len(g)
	for i > 0 && (g[i-1].start > m.start || (g[i-1].start == m.start && g[i-1].id > m.id)) {
		i--
	}
	g = append(g, groupMember{})
	copy(g[i+1:], g[i:])
	g[i] = m
	c.groups[k] = g
}

// addSync folds one sleep/wake event into the SSC and wake-graph
// aggregates.
func (c *Collector) addSync(s *events.SyncEvent) {
	c.syncAgg.Total++
	switch s.Kind {
	case events.SyncWake:
		c.syncAgg.Wakes++
		for _, t := range s.Targets {
			c.wakeAgg[[2]int64{int64(s.Thread), int64(t)}]++
		}
		if a, ok := c.arrived[s.Call]; ok {
			if a.adjusted < c.opts.Weights.SyncShortLimit {
				c.syncAgg.ShortWakes++
			}
		} else {
			c.pendingWakes[s.Call]++
		}
	case events.SyncSleep:
		c.syncAgg.Sleeps++
	}
}

// addPaging folds one paging event into the paging summary, deferring the
// during-a-call test when the covering call has not arrived yet.
func (c *Collector) addPaging(p *events.PagingEvent) {
	if p.Kind == events.PageIn {
		c.paging.PageIns++
	} else {
		c.paging.PageOuts++
	}
	c.paging.ByRegion[p.PageKind]++
	if cs := c.cover[p.Thread]; cs != nil && cs.contains(p.Time) {
		c.paging.DuringCalls++
		return
	}
	c.pendingPaging[p.Thread] = append(c.pendingPaging[p.Thread], p.Time)
}
