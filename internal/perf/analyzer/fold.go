package analyzer

// The streaming fold: the analyser's per-table scans expressed as a
// single merge sweep over time-ordered ecall/ocall/paging chunks with
// carry state bounded by O(open calls + threads), independent of trace
// length. The sweep feeds per-name aggregates — duration histograms,
// the Equation 2 and 3 accumulators (ReorderAgg, MergeAgg), parent
// counts — and the security-hint evidence; AssembleReport renders them
// into a Report.
// Every report comes from here, in one pass from an empty carry to the
// end of the feeds: Analyzer.Analyze folds sorted copies of a resident
// trace (the serve daemon's reports among them) and AnalyzeStream folds
// a saved file chunk by chunk.
//
// Preconditions. The fold requires the stream-sorted layout
// events.StreamSort produces — ecalls and ocalls each sorted by
// (Start, ID), paging by (Time, ID) — and verifies it as it sweeps,
// returning ErrUnsorted when a row sorts before its predecessor.
//
// Direct parents. A call's Parent link resolves only while the parent
// is open: the parent was swept before the child (it started first)
// and has not ended when the child starts. A child that starts after
// its parent ended stays unparented, and such late children chain as
// their own indirect-parent group because the parent's group slots are
// dropped when it closes. SDK-recorded traces nest properly, so every
// Parent link in them resolves.
//
// Carry layout. Open calls live on per-thread stacks: before a call is
// folded its thread pops every frame that ended before the call starts,
// so the call's parent, in a nested trace, is the innermost frame left,
// and the call is pushed on top when it nests inside that frame. Each
// frame holds the group slots of its same-thread children, one per
// kind, and each thread its top-level slots, so a nested trace folds
// with no map work per call. The exact fallbacks cost only when used:
//   - a call that does not nest inside its thread's innermost open call
//     waits in the open map, from which closed calls leave in sweeps
//     that run whenever the map has doubled since the last one;
//   - a Parent link that misses both the child's own stack and the open
//     map resolves through an ID index of every thread's frames, built
//     on the first such miss and maintained from then on;
//   - group slots under cross-thread, late, dangling or forward Parent
//     links live in the groups/groupsOf maps; slots opened under an ID
//     before it was swept move into its frame when it is pushed.
// Slots go with their parent call; only top-level groups (one per
// thread × kind) and groups under parents that are never open persist
// for the whole sweep.

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// ErrUnsorted reports that a streamed table is not in the stream-sorted
// layout (events.StreamSort) the fold requires. Callers fall back to
// Analyzer.Analyze, which sorts copies of the tables first.
var ErrUnsorted = errors.New("analyzer: trace tables are not stream-sorted")

// ChunkSeq supplies one table's rows chunk-by-chunk with random access:
// the read-ahead alternates two feeds over one table, each reading every
// other chunk. A resident evstore table, a stream cursor (see source.go)
// and in-memory Chunks satisfy it.
//
// The rows Chunk returns are read-only and stay valid only until the
// next Chunk call on the same ChunkSeq: a stream cursor decodes every
// chunk into one recycled buffer. A consumer that keeps rows across
// calls copies them (foldOrder does), unless the feed is a resident
// table or Chunks, whose rows never change (stableRows).
type ChunkSeq[T any] interface {
	NumChunks() int
	Chunk(i int) ([]T, error)
}

// FoldConfig carries the trace-wide constants of one fold.
type FoldConfig struct {
	Weights    Weights
	Freq       vtime.Frequency
	Transition vtime.Cycles
	Enclave    sgx.EnclaveID
	// SyncRefs maps a call event ID to the number of wake sync events
	// carried by that ocall (from PrescanSyncs). The sweep resolves
	// syncAgg.ShortWakes from it without keeping call durations around.
	SyncRefs map[events.EventID]int
}

// FoldInput bundles the three time-ordered feeds of one fold.
type FoldInput struct {
	Ecalls ChunkSeq[events.CallEvent]
	Ocalls ChunkSeq[events.CallEvent]
	Paging ChunkSeq[events.PagingEvent]
}

type callKey struct {
	start vtime.Cycles
	id    events.EventID
}

func (k callKey) compare(o callKey) int {
	if c := cmp.Compare(k.start, o.start); c != 0 {
		return c
	}
	return cmp.Compare(k.id, o.id)
}

func (k callKey) less(o callKey) bool { return k.compare(o) < 0 }

type openCall struct {
	name       string
	start, end vtime.Cycles
}

// foldGroup is the indirect-parent group key: successive calls of one
// (thread, kind, Parent link) group link as indirect parent and child
// (Fig. 4).
type foldGroup struct {
	thread int64
	kind   events.CallKind
	parent events.EventID
}

// groupPrev is a group slot: the group's previous call. set marks an
// inline slot (a frame's or a thread's) in use; the maps hold only set
// slots.
type groupPrev struct {
	name string
	end  vtime.Cycles
	set  bool
}

// slotIndex returns the inline group slot of a call kind: 0 for
// ecalls, 1 for ocalls, -1 for any other kind (only corrupt input has
// one), which chains through the maps.
func slotIndex(kind events.CallKind) int {
	if k := int(kind - events.KindEcall); k == 0 || k == 1 {
		return k
	}
	return -1
}

// frame is one open call on its thread's stack, nested inside the frame
// below it.
type frame struct {
	id events.EventID
	openCall
	// slots are the group slots of the call's same-thread children, one
	// per kind.
	slots [2]groupPrev
	// mapped records that the group maps hold slots under this call (its
	// children on other threads), dropped when the frame pops.
	mapped bool
}

// threadState is one thread's part of the carry.
type threadState struct {
	id sgx.ThreadID
	// stack holds the thread's properly nested open calls, innermost
	// last.
	stack []frame
	// top holds the thread's top-level group slots (Parent == NoEvent),
	// one per kind.
	top [2]groupPrev
	// maxEnd is the latest end of the thread's calls so far.
	maxEnd vtime.Cycles
}

// find returns the thread's open frame with the given ID, or nil.
//
//sgxperf:hotpath
func (ts *threadState) find(id events.EventID) *frame {
	for i := len(ts.stack) - 1; i >= 0; i-- {
		if ts.stack[i].id == id {
			return &ts.stack[i]
		}
	}
	return nil
}

// FoldCarry is the cross-chunk state of a fold: monotonicity
// watermarks, the open calls, the indirect-parent group slots and the
// per-thread latest call end (see "Carry layout" above). Its size is
// bounded by the number of concurrently open calls and threads, never
// by trace length.
type FoldCarry struct {
	lastCall, lastPage callKey
	seenCall, seenPage bool

	// threads holds each thread's stack, top-level slots and latest
	// call end; last caches the most recent lookup.
	threads map[sgx.ThreadID]*threadState
	last    *threadState

	// open holds the calls that did not nest inside their thread's
	// innermost open call. purgeAt is the size that triggers the next
	// sweep for closed calls, keeping eviction amortised O(1) per call.
	// A closed call still in the map is never resolved as a parent: the
	// lookup closes it on the spot.
	open    map[events.EventID]openCall
	purgeAt int

	// groups holds the group slots that live in no frame; groupsOf lists
	// them by Parent link, so they can be dropped when that call closes.
	groups   map[foldGroup]*groupPrev
	groupsOf map[events.EventID][]foldGroup

	// index maps the ID of every thread's frames to their thread; nil
	// until a Parent link first misses both the child's own stack and the
	// open map.
	index map[events.EventID]*threadState
}

// NewFoldCarry returns the empty carry a fold starts from.
func NewFoldCarry() *FoldCarry {
	return &FoldCarry{
		threads:  make(map[sgx.ThreadID]*threadState),
		open:     make(map[events.EventID]openCall),
		groups:   make(map[foldGroup]*groupPrev),
		groupsOf: make(map[events.EventID][]foldGroup),
	}
}

// thread returns a thread's state, creating it on the thread's first
// call.
//
//sgxperf:hotpath
func (c *FoldCarry) thread(id sgx.ThreadID) *threadState {
	if ts := c.last; ts != nil && ts.id == id {
		return ts
	}
	ts := c.threads[id]
	if ts == nil {
		ts = &threadState{id: id, maxEnd: math.MinInt64}
		c.threads[id] = ts
	}
	c.last = ts
	return ts
}

// popEnded closes the thread's frames that ended before pos. They sit
// at the top of its stack, since each frame nests inside the one below,
// and their inline slots go with them.
//
//sgxperf:hotpath
func (c *FoldCarry) popEnded(ts *threadState, pos vtime.Cycles) {
	n := len(ts.stack)
	for n > 0 && ts.stack[n-1].end < pos {
		n--
		f := &ts.stack[n]
		if f.mapped {
			c.dropSlots(f.id)
		}
		if c.index != nil && c.index[f.id] == ts {
			delete(c.index, f.id)
		}
	}
	ts.stack = ts.stack[:n]
}

// push opens a folded call: on its thread's stack when it nests inside
// the innermost open frame there, in the open map otherwise.
//
//sgxperf:hotpath
func (c *FoldCarry) push(ts *threadState, call *events.CallEvent) {
	oc := openCall{name: call.Name, start: call.Start, end: call.End}
	n := len(ts.stack)
	if n > 0 && call.End > ts.stack[n-1].end {
		c.open[call.ID] = oc
		return
	}
	ts.stack = append(ts.stack, frame{id: call.ID, openCall: oc})
	if len(c.groupsOf) > 0 {
		c.adoptSlots(ts, &ts.stack[n])
	}
	if c.index != nil {
		c.index[call.ID] = ts
	}
}

// adoptSlots moves the slots opened under a call's ID before the call
// was swept — its forward children on the same thread — into its new
// frame. Other threads' slots stay in the maps, and the frame notes it.
func (c *FoldCarry) adoptSlots(ts *threadState, f *frame) {
	gks, ok := c.groupsOf[f.id]
	if !ok {
		return
	}
	keep := gks[:0]
	for _, gk := range gks {
		if k := slotIndex(gk.kind); k >= 0 && gk.thread == int64(ts.id) {
			f.slots[k] = *c.groups[gk]
			delete(c.groups, gk)
		} else {
			keep = append(keep, gk)
		}
	}
	if len(keep) == 0 {
		delete(c.groupsOf, f.id)
	} else {
		c.groupsOf[f.id] = keep
		f.mapped = true
	}
}

// indexed looks a frame up by ID across every thread, building the
// index on first use.
func (c *FoldCarry) indexed(id events.EventID) (*threadState, *frame) {
	if c.index == nil {
		c.index = make(map[events.EventID]*threadState)
		// Thread order makes the index deterministic should two frames
		// share an ID.
		ids := make([]sgx.ThreadID, 0, len(c.threads))
		for tid := range c.threads {
			ids = append(ids, tid)
		}
		slices.Sort(ids)
		for _, tid := range ids {
			for _, f := range c.threads[tid].stack {
				c.index[f.id] = c.threads[tid]
			}
		}
	}
	ts := c.index[id]
	if ts == nil {
		return nil, nil
	}
	return ts, ts.find(id)
}

// close drops one open-map call and the group slots keyed under it.
func (c *FoldCarry) close(id events.EventID) {
	delete(c.open, id)
	c.dropSlots(id)
}

// dropSlots deletes the map group slots keyed under a closed parent:
// later children of a closed parent are late and start a chain of their
// own.
//
//sgxperf:hotpath
func (c *FoldCarry) dropSlots(parent events.EventID) {
	if gks, ok := c.groupsOf[parent]; ok {
		for _, gk := range gks {
			delete(c.groups, gk)
		}
		delete(c.groupsOf, parent)
	}
}

// evict closes every open-map call that ended before pos. Closed calls
// outnumber the survivors, so the map is cleared and the few survivors
// reinserted rather than the many deleted.
func (c *FoldCarry) evict(pos vtime.Cycles) {
	type entry struct {
		id events.EventID
		openCall
	}
	var live []entry
	for id, oc := range c.open {
		if oc.end >= pos {
			live = append(live, entry{id, oc})
		} else {
			c.dropSlots(id)
		}
	}
	clear(c.open)
	for _, e := range live {
		c.open[e.id] = e.openCall
	}
	c.purgeAt = 2*len(live) + 64
}

// NameAgg accumulates one call name's streaming aggregates: the
// duration multiset as a histogram (bounded by distinct durations, not
// executions), the AEX total, the first-occurrence kind and call ID the
// call graph reports, the Equation 2 offsets of executions with a
// resolved direct parent, the Equation 3 accumulators per indirect
// parent, and the make-private evidence.
type NameAgg struct {
	Kind     events.CallKind
	CallID   int
	Count    int
	TotalAEX int
	Hist     map[time.Duration]int
	Reorder  ReorderAgg
	// Parents counts executions per resolved direct-parent name: the
	// solid call-graph edges into this call (nil until one resolves).
	Parents map[string]int
	// Indirect holds the Equation 3 accumulator per indirect-parent
	// name; each Count is also a dashed call-graph edge (Fig. 4).
	Indirect map[string]*MergeAgg
	// TopLevel records that at least one execution had no Parent link.
	TopLevel bool
}

// PagingAgg accumulates the paging summary counters.
type PagingAgg struct {
	PageIns, PageOuts, DuringCalls int
	ByRegion                       map[string]int
}

// FoldDelta is one sweep's aggregate output, which AssembleReport
// renders.
type FoldDelta struct {
	Names      map[string]*NameAgg
	Paging     PagingAgg
	ShortWakes int
	// Observed maps each parent name to the ecalls issued during it.
	Observed map[string]map[string]bool
}

// NewFoldDelta returns an empty delta.
func NewFoldDelta() *FoldDelta {
	return &FoldDelta{
		Names:    make(map[string]*NameAgg),
		Paging:   PagingAgg{ByRegion: make(map[string]int)},
		Observed: make(map[string]map[string]bool),
	}
}

// name returns the call's per-name aggregate, creating it on the name's
// first occurrence.
//
//sgxperf:hotpath
func (d *FoldDelta) name(ev *events.CallEvent) *NameAgg {
	na := d.Names[ev.Name]
	if na == nil {
		na = &NameAgg{Kind: ev.Kind, CallID: ev.CallID, Hist: make(map[time.Duration]int)}
		d.Names[ev.Name] = na
	}
	return na
}

// indirect returns the Equation 3 accumulator for one indirect parent.
//
//sgxperf:hotpath
func (na *NameAgg) indirect(parent string) *MergeAgg {
	g := na.Indirect[parent]
	if g == nil {
		if na.Indirect == nil {
			na.Indirect = make(map[string]*MergeAgg)
		}
		g = &MergeAgg{}
		na.Indirect[parent] = g
	}
	return g
}

// addParent counts one execution under a resolved direct parent.
func (na *NameAgg) addParent(parent string) {
	if na.Parents == nil {
		na.Parents = make(map[string]int)
	}
	na.Parents[parent]++
}

func (d *FoldDelta) observed(parent string) map[string]bool {
	s := d.Observed[parent]
	if s == nil {
		s = make(map[string]bool)
		d.Observed[parent] = s
	}
	return s
}

// seqCursor walks one ChunkSeq from its first row, holding at most one
// chunk resident — two when it reads ahead.
type seqCursor[T any] struct {
	seq        ChunkSeq[T]
	n          int
	chunk, row int
	buf        []T
	loaded     bool
	ahead      *readAhead[T]
}

func newSeqCursor[T any](seq ChunkSeq[T]) *seqCursor[T] {
	c := &seqCursor[T]{seq: seq, n: seq.NumChunks()}
	if f, ok := seq.(forkSeq[T]); ok && c.n > 1 {
		c.ahead = &readAhead[T]{spare: f.fork(), next: -1, done: make(chan chunkRead[T], 1)}
	}
	return c
}

// head returns the current row without consuming it, or nil at EOF.
func (c *seqCursor[T]) head() (*T, error) {
	for c.chunk < c.n {
		if !c.loaded {
			buf, err := c.load(c.chunk)
			if err != nil {
				return nil, err
			}
			c.buf = buf
			c.loaded = true
		}
		if c.row < len(c.buf) {
			return &c.buf[c.row], nil
		}
		c.chunk++
		c.row = 0
		c.buf = nil
		c.loaded = false
	}
	return nil, nil
}

func (c *seqCursor[T]) pop() { c.row++ }

// forkSeq is a feed that decodes from a file into recycled buffers
// (cursorSeq). fork opens a second feed over the same table with
// buffers of its own, so one can decode the next chunk while the sweep
// still folds the other's.
type forkSeq[T any] interface {
	ChunkSeq[T]
	fork() ChunkSeq[T]
}

// readAhead decodes a file-backed feed's next chunk on another
// goroutine while the sweep folds the current one. The two feeds trade
// places at every chunk: the sweep's rows always come from one, and the
// read in flight always writes into the other.
type readAhead[T any] struct {
	spare ChunkSeq[T]
	next  int // the chunk in flight, or -1
	done  chan chunkRead[T]
}

type chunkRead[T any] struct {
	rows []T
	err  error
}

// readsInFlight counts the read-ahead chunk reads started and not yet
// finished, so tests can check that none outlives its fold.
var readsInFlight atomic.Int64

// load returns chunk i, through the read-ahead when one is set up, and
// starts reading chunk i+1.
func (c *seqCursor[T]) load(i int) ([]T, error) {
	ra := c.ahead
	if ra == nil {
		return c.seq.Chunk(i)
	}
	var r chunkRead[T]
	if ra.next == i {
		r = <-ra.done
		ra.next = -1
		c.seq, ra.spare = ra.spare, c.seq
	} else {
		ra.wait()
		r.rows, r.err = c.seq.Chunk(i)
	}
	if r.err == nil && i+1 < c.n {
		ra.start(i + 1)
	}
	return r.rows, r.err
}

// start reads chunk i into the spare feed on a new goroutine.
func (ra *readAhead[T]) start(i int) {
	ra.next = i
	readsInFlight.Add(1)
	seq, done := ra.spare, ra.done
	go func() {
		rows, err := seq.Chunk(i)
		readsInFlight.Add(-1)
		done <- chunkRead[T]{rows, err}
	}()
}

// wait blocks until the read in flight, if any, has finished and drops
// its result.
func (ra *readAhead[T]) wait() {
	if ra.next >= 0 {
		<-ra.done
		ra.next = -1
	}
}

// stop waits for the cursor's read-ahead: fold calls it before it
// returns, on every path, so no read outlives the fold that started it.
func (c *seqCursor[T]) stop() {
	if c.ahead != nil {
		c.ahead.wait()
	}
}

// fold runs the merge sweep over every row of the feeds, from an empty
// carry, and returns the aggregates. A feed that decodes from a file is
// read one chunk ahead of the sweep; fold waits for that read before it
// returns.
func fold(cfg *FoldConfig, in FoldInput) (*FoldDelta, error) {
	carry := NewFoldCarry()
	delta := NewFoldDelta()

	ec := newSeqCursor[events.CallEvent](in.Ecalls)
	defer ec.stop()
	oc := newSeqCursor[events.CallEvent](in.Ocalls)
	defer oc.stop()
	pc := newSeqCursor[events.PagingEvent](in.Paging)
	defer pc.stop()

	for {
		e, err := ec.head()
		if err != nil {
			return nil, err
		}
		o, err := oc.head()
		if err != nil {
			return nil, err
		}
		// Pick the earlier call head by (Start, ID).
		var call *events.CallEvent
		var fromE bool
		switch {
		case e != nil && o != nil:
			if (callKey{e.Start, e.ID}).less(callKey{o.Start, o.ID}) {
				call, fromE = e, true
			} else {
				call, fromE = o, false
			}
		case e != nil:
			call, fromE = e, true
		case o != nil:
			call, fromE = o, false
		}

		p, err := pc.head()
		if err != nil {
			return nil, err
		}

		// Paging events interleave after calls sharing their timestamp:
		// a call counts as spanning a paging event when
		// Start <= Time <= End, inclusive.
		if p != nil && (call == nil || p.Time < call.Start) {
			k := callKey{p.Time, p.ID}
			if carry.seenPage && k.less(carry.lastPage) {
				return nil, ErrUnsorted
			}
			carry.lastPage, carry.seenPage = k, true
			if p.Kind == events.PageIn {
				delta.Paging.PageIns++
			} else {
				delta.Paging.PageOuts++
			}
			delta.Paging.ByRegion[p.PageKind]++
			if ts := carry.threads[p.Thread]; ts != nil && ts.maxEnd >= p.Time {
				delta.Paging.DuringCalls++
			}
			pc.pop()
			continue
		}
		if call == nil {
			break
		}

		k := callKey{call.Start, call.ID}
		if carry.seenCall && k.less(carry.lastCall) {
			return nil, ErrUnsorted
		}
		carry.lastCall, carry.seenCall = k, true
		if cfg.Enclave != 0 && call.Enclave != cfg.Enclave {
			if fromE {
				ec.pop()
			} else {
				oc.pop()
			}
			continue
		}

		if len(carry.open) >= carry.purgeAt {
			carry.evict(call.Start)
		}
		foldCall(cfg, carry, delta, call)
		if fromE {
			ec.pop()
		} else {
			oc.pop()
		}
	}

	return delta, nil
}

// adjustedDuration is a call's execution duration: for ecalls the
// transition round-trip is subtracted (§4.1.2), clamped at zero; ocall
// timestamps already exclude transitions.
func adjustedDuration(call *events.CallEvent, freq vtime.Frequency, transition vtime.Cycles) time.Duration {
	if call.Kind != events.KindEcall {
		return freq.Duration(call.Duration())
	}
	return max(freq.Duration(call.Duration()-transition), 0)
}

// foldCall folds one in-filter call into the delta and carry.
func foldCall(cfg *FoldConfig, carry *FoldCarry, delta *FoldDelta, call *events.CallEvent) {
	adjusted := adjustedDuration(call, cfg.Freq, cfg.Transition)

	na := delta.name(call)
	na.Count++
	na.TotalAEX += call.AEXCount
	na.Hist[adjusted]++

	if adjusted < cfg.Weights.SyncShortLimit {
		delta.ShortWakes += cfg.SyncRefs[call.ID]
	}

	ts := carry.thread(call.Thread)
	carry.popEnded(ts, call.Start)

	// The call's group slot: inline in its thread or its parent's frame
	// when it has one there, in the maps otherwise (slot == nil).
	k := slotIndex(call.Kind)
	var slot *groupPrev
	if call.Parent == events.NoEvent {
		na.TopLevel = true
		if k >= 0 {
			slot = &ts.top[k]
		}
	} else if f := ts.find(call.Parent); f != nil {
		delta.parented(cfg, na, call, &f.openCall)
		if k >= 0 {
			slot = &f.slots[k]
		} else {
			f.mapped = true
		}
	} else {
		carry.resolveElsewhere(cfg, delta, na, call)
	}
	if slot == nil {
		carry.chainMapped(cfg, na, call)
	} else {
		if slot.set {
			na.indirect(slot.name).Add(max(cfg.Freq.Duration(call.Start-slot.end), 0))
		}
		*slot = groupPrev{name: call.Name, end: call.End, set: true}
	}

	carry.push(ts, call)
	ts.maxEnd = max(ts.maxEnd, call.End)
}

// resolveElsewhere resolves a Parent link that missed the child's own
// stack: through the open map, else through the frame index. A parent
// found closed is closed on the spot, so its late children chain apart.
func (c *FoldCarry) resolveElsewhere(cfg *FoldConfig, delta *FoldDelta, na *NameAgg, call *events.CallEvent) {
	if p, ok := c.open[call.Parent]; ok {
		if p.end < call.Start {
			c.close(call.Parent)
		} else {
			delta.parented(cfg, na, call, &p)
		}
		return
	}
	owner, f := c.indexed(call.Parent)
	if f == nil {
		return
	}
	if f.end < call.Start {
		c.popEnded(owner, call.Start)
		return
	}
	delta.parented(cfg, na, call, &f.openCall)
	f.mapped = true // the child's slot lives in the maps under f
}

// parented records a call's resolved direct parent: the Equation 2
// offsets, the solid call-graph edge and, for ecalls, the allow-list
// evidence.
//
//sgxperf:hotpath
func (d *FoldDelta) parented(cfg *FoldConfig, na *NameAgg, call *events.CallEvent, p *openCall) {
	na.Reorder.Add(cfg.Freq.Duration(call.Start-p.start), cfg.Freq.Duration(p.end-call.End))
	na.addParent(p.name)
	if call.Kind == events.KindEcall {
		d.observed(p.name)[call.Name] = true
	}
}

// chainMapped chains a call through the group maps, which hold the
// slots that live in no frame.
func (c *FoldCarry) chainMapped(cfg *FoldConfig, na *NameAgg, call *events.CallEvent) {
	gk := foldGroup{thread: int64(call.Thread), kind: call.Kind, parent: call.Parent}
	if prev := c.groups[gk]; prev != nil {
		na.indirect(prev.name).Add(max(cfg.Freq.Duration(call.Start-prev.end), 0))
		prev.name, prev.end = call.Name, call.End
		return
	}
	if call.Parent != events.NoEvent {
		c.groupsOf[call.Parent] = append(c.groupsOf[call.Parent], gk)
	}
	c.groups[gk] = &groupPrev{name: call.Name, end: call.End, set: true}
}
