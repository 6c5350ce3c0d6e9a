package analyzer

// The streaming fold: the analyser's per-table scans expressed as a
// single merge sweep over time-ordered ecall/ocall/paging chunks with
// carry state bounded by O(open calls + threads), independent of trace
// length. The sweep feeds per-name aggregates — duration histograms,
// the Equation 2 and 3 accumulators (ReorderAgg, MergeAgg), parent
// counts — and the security-hint evidence; assembleReport renders them
// into a Report.
// Every report comes from here, in one pass from an empty carry to the
// end of the feeds: Analyzer.Analyze folds a resident trace (the serve
// daemon's reports among them), each unsorted table gathered in the
// fold's order a chunk at a time, and AnalyzeStream folds a saved file
// chunk by chunk.
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
// Aggregate layout. The delta interns each call name the first time it
// sees it: the name's dense int32 ID indexes its aggregate in a slice,
// so the name lookup is the one string-keyed map read a call costs.
// Everything the sweep keys by name afterwards — open calls, frames,
// group slots — carries the ID. Name pairs share one table keyed by
// (child ID, parent ID) packed into a uint64: a pair's direct-parent
// count, its Equation 3 accumulator and its allow-list evidence live in
// one entry, so a resolved parent or an indirect-parent step costs one
// integer-keyed lookup. The table holds only pairs that occur, never a
// names × names array: an uploaded trace can carry any number of names.
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
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// ErrUnsorted reports that a streamed table is not in the stream-sorted
// layout (events.StreamSort) the fold requires. Callers fall back to
// Analyzer.Analyze, which feeds each unsorted table through its sorted
// (key, position) records.
var ErrUnsorted = errors.New("analyzer: trace tables are not stream-sorted")

// ChunkSeq supplies one table's rows chunk-by-chunk with random access:
// the read-ahead alternates two feeds over one table, each reading every
// other chunk. A stream cursor (see source.go), in-memory Chunks, the
// feed of a resident evstore table, and foldOrder's gather satisfy it.
//
// The rows Chunk returns are read-only and stay valid only until the
// next Chunk call on the same ChunkSeq: a stream cursor decodes every
// chunk, and a gather copies every chunk's rows, into one recycled
// buffer. A consumer that keeps rows across calls copies them
// (foldOrder does), unless the feed is Chunks, whose rows never change
// (stableRows).
type ChunkSeq[T any] interface {
	NumChunks() int
	Chunk(i int) ([]T, error)
}

// foldConfig carries the trace-wide constants of one fold.
type foldConfig struct {
	weights    Weights
	freq       vtime.Frequency
	transition vtime.Cycles
	enclave    sgx.EnclaveID
	// syncs counts the wake sync events each call carries (from
	// prescanSyncs). The sweep resolves syncAgg.ShortWakes from it
	// without keeping call durations around.
	syncs syncRefs
}

// foldInput bundles the three time-ordered feeds of one fold.
type foldInput struct {
	ecalls ChunkSeq[events.CallEvent]
	ocalls ChunkSeq[events.CallEvent]
	paging ChunkSeq[events.PagingEvent]
}

// syncRefs maps a call event ID to the number of wake sync events it
// carries, behind a one-hash bit filter with at least 8 bits per
// referenced ID. About 6% of a recording's calls carry a wake, so most
// short calls miss the filter and add 0 without probing the map; a hit
// still reads the map, so a filter collision costs a lookup and never a
// wrong count.
type syncRefs struct {
	counts map[events.EventID]int
	bits   []uint64
	// shift keeps the top log2(len(bits)*64) bits of the product hash.
	shift uint
}

// newSyncRefs builds the filter over the referenced IDs: the smallest
// power of two of at least 64 bits and 8 bits per ID.
func newSyncRefs(counts map[events.EventID]int) syncRefs {
	n := 64
	for n < 8*len(counts) {
		n <<= 1
	}
	r := syncRefs{counts: counts, bits: make([]uint64, n/64), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	for id := range counts {
		h := r.slot(id)
		r.bits[h/64] |= 1 << (h % 64)
	}
	return r
}

// slot is an ID's filter bit: multiplicative (Fibonacci) hashing.
//
//sgxperf:hotpath
func (r *syncRefs) slot(id events.EventID) uint64 {
	return uint64(id) * 0x9e3779b97f4a7c15 >> r.shift
}

// admits reports whether the ID's filter bit is set: true for every
// referenced ID, and for the few others that share a bit with one.
//
//sgxperf:hotpath
func (r *syncRefs) admits(id events.EventID) bool {
	h := r.slot(id)
	return r.bits[h/64]&(1<<(h%64)) != 0
}

// wakes returns the number of wake syncs the call with the given ID
// carries.
//
//sgxperf:hotpath
func (r *syncRefs) wakes(id events.EventID) int {
	if !r.admits(id) {
		return 0
	}
	return r.counts[id]
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

// openCall is an open call: its span and its name's ID.
type openCall struct {
	start, end vtime.Cycles
	name       int32
}

// foldGroup is the indirect-parent group key: successive calls of one
// (thread, kind, Parent link) group link as indirect parent and child
// (Fig. 4).
type foldGroup struct {
	thread int64
	kind   events.CallKind
	parent events.EventID
}

// groupPrev is a group slot: the group's previous call, its end and
// name ID. set marks an inline slot (a frame's or a thread's) in use;
// the maps hold only set slots.
type groupPrev struct {
	end  vtime.Cycles
	name int32
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

// foldCarry is the cross-chunk state of a fold: monotonicity
// watermarks, the open calls, the indirect-parent group slots and the
// per-thread latest call end (see "Carry layout" above). Its size is
// bounded by the number of concurrently open calls and threads, never
// by trace length.
type foldCarry struct {
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

// newFoldCarry returns the empty carry a fold starts from.
func newFoldCarry() *foldCarry {
	return &foldCarry{
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
func (c *foldCarry) thread(id sgx.ThreadID) *threadState {
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
func (c *foldCarry) popEnded(ts *threadState, pos vtime.Cycles) {
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
func (c *foldCarry) push(ts *threadState, call *events.CallEvent, name int32) {
	oc := openCall{start: call.Start, end: call.End, name: name}
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
func (c *foldCarry) adoptSlots(ts *threadState, f *frame) {
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
func (c *foldCarry) indexed(id events.EventID) (*threadState, *frame) {
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
func (c *foldCarry) close(id events.EventID) {
	delete(c.open, id)
	c.dropSlots(id)
}

// dropSlots deletes the map group slots keyed under a closed parent:
// later children of a closed parent are late and start a chain of their
// own.
//
//sgxperf:hotpath
func (c *foldCarry) dropSlots(parent events.EventID) {
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
func (c *foldCarry) evict(pos vtime.Cycles) {
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

// nameAgg accumulates one call name's streaming aggregates: the
// duration multiset as a histogram (bounded by distinct durations, not
// executions), the AEX total, the first-occurrence kind and call ID the
// call graph reports, the Equation 2 offsets of executions with a
// resolved direct parent, and the make-private evidence. What the name
// shares with a parent name lives in the delta's pair table.
type nameAgg struct {
	name     string
	kind     events.CallKind
	callID   int
	count    int
	totalAEX int
	hist     map[time.Duration]int
	reorder  ReorderAgg
	// topLevel records that at least one execution had no Parent link.
	topLevel bool
}

// pairAgg accumulates one (child, parent) name pair of the pair table.
type pairAgg struct {
	child, parent int32
	// direct counts the child's executions under a resolved direct
	// parent of this name: a solid call-graph edge (0 for none).
	direct int
	// indirect is the Equation 3 accumulator for this name as the
	// child's indirect parent; its Count is a dashed call-graph edge
	// (Fig. 4).
	indirect MergeAgg
	// observed records that an ecall execution of the child was issued
	// during a call of this name: the allow-list evidence.
	observed bool
}

// pagingAgg accumulates the paging summary counters.
type pagingAgg struct {
	pageIns, pageOuts, duringCalls int
	byRegion                       map[string]int
}

// foldDelta is one sweep's aggregate output, which assembleReport
// renders (see "Aggregate layout" above).
type foldDelta struct {
	// ids interns each call name to its index in names.
	ids   map[string]int32
	names []nameAgg
	// pairIdx indexes pairs by (child ID, parent ID) packed into a
	// uint64.
	pairIdx    map[uint64]int32
	pairs      []pairAgg
	paging     pagingAgg
	shortWakes int
}

// newFoldDelta returns an empty delta.
func newFoldDelta() *foldDelta {
	return &foldDelta{
		ids:     make(map[string]int32),
		pairIdx: make(map[uint64]int32),
		paging:  pagingAgg{byRegion: make(map[string]int)},
	}
}

// name returns the ID of the call's name, interning the name and
// creating its aggregate on its first occurrence.
//
//sgxperf:hotpath
func (d *foldDelta) name(ev *events.CallEvent) int32 {
	id, ok := d.ids[ev.Name]
	if !ok {
		id = int32(len(d.names))
		d.ids[ev.Name] = id
		d.names = append(d.names, nameAgg{name: ev.Name, kind: ev.Kind, callID: ev.CallID, hist: make(map[time.Duration]int)})
	}
	return id
}

// pair returns the (child, parent) pair's aggregate, creating it on the
// pair's first occurrence.
//
//sgxperf:hotpath
func (d *foldDelta) pair(child, parent int32) *pairAgg {
	k := uint64(uint32(child))<<32 | uint64(uint32(parent))
	i, ok := d.pairIdx[k]
	if !ok {
		i = int32(len(d.pairs))
		d.pairIdx[k] = i
		d.pairs = append(d.pairs, pairAgg{child: child, parent: parent})
	}
	return &d.pairs[i]
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
func fold(cfg *foldConfig, in foldInput) (*foldDelta, error) {
	carry := newFoldCarry()
	delta := newFoldDelta()

	ec := newSeqCursor[events.CallEvent](in.ecalls)
	defer ec.stop()
	oc := newSeqCursor[events.CallEvent](in.ocalls)
	defer oc.stop()
	pc := newSeqCursor[events.PagingEvent](in.paging)
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
				delta.paging.pageIns++
			} else {
				delta.paging.pageOuts++
			}
			delta.paging.byRegion[p.PageKind]++
			if ts := carry.threads[p.Thread]; ts != nil && ts.maxEnd >= p.Time {
				delta.paging.duringCalls++
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
		if cfg.enclave != 0 && call.Enclave != cfg.enclave {
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
func foldCall(cfg *foldConfig, carry *foldCarry, delta *foldDelta, call *events.CallEvent) {
	adjusted := adjustedDuration(call, cfg.freq, cfg.transition)

	id := delta.name(call)
	na := &delta.names[id]
	na.count++
	na.totalAEX += call.AEXCount
	na.hist[adjusted]++

	if adjusted < cfg.weights.SyncShortLimit {
		delta.shortWakes += cfg.syncs.wakes(call.ID)
	}

	ts := carry.thread(call.Thread)
	carry.popEnded(ts, call.Start)

	// The call's group slot: inline in its thread or its parent's frame
	// when it has one there, in the maps otherwise (slot == nil).
	k := slotIndex(call.Kind)
	var slot *groupPrev
	if call.Parent == events.NoEvent {
		na.topLevel = true
		if k >= 0 {
			slot = &ts.top[k]
		}
	} else if f := ts.find(call.Parent); f != nil {
		delta.parented(cfg, id, call, &f.openCall)
		if k >= 0 {
			slot = &f.slots[k]
		} else {
			f.mapped = true
		}
	} else {
		carry.resolveElsewhere(cfg, delta, id, call)
	}
	if slot == nil {
		carry.chainMapped(cfg, delta, id, call)
	} else {
		if slot.set {
			delta.pair(id, slot.name).indirect.Add(max(cfg.freq.Duration(call.Start-slot.end), 0))
		}
		*slot = groupPrev{end: call.End, name: id, set: true}
	}

	carry.push(ts, call, id)
	ts.maxEnd = max(ts.maxEnd, call.End)
}

// resolveElsewhere resolves a Parent link that missed the child's own
// stack: through the open map, else through the frame index. A parent
// found closed is closed on the spot, so its late children chain apart.
func (c *foldCarry) resolveElsewhere(cfg *foldConfig, delta *foldDelta, id int32, call *events.CallEvent) {
	if p, ok := c.open[call.Parent]; ok {
		if p.end < call.Start {
			c.close(call.Parent)
		} else {
			delta.parented(cfg, id, call, &p)
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
	delta.parented(cfg, id, call, &f.openCall)
	f.mapped = true // the child's slot lives in the maps under f
}

// parented records the resolved direct parent of a call whose name has
// the given ID: the Equation 2 offsets, the solid call-graph edge and,
// for ecalls, the allow-list evidence.
//
//sgxperf:hotpath
func (d *foldDelta) parented(cfg *foldConfig, id int32, call *events.CallEvent, p *openCall) {
	d.names[id].reorder.Add(cfg.freq.Duration(call.Start-p.start), cfg.freq.Duration(p.end-call.End))
	pa := d.pair(id, p.name)
	pa.direct++
	if call.Kind == events.KindEcall {
		pa.observed = true
	}
}

// chainMapped chains a call through the group maps, which hold the
// slots that live in no frame.
func (c *foldCarry) chainMapped(cfg *foldConfig, delta *foldDelta, id int32, call *events.CallEvent) {
	gk := foldGroup{thread: int64(call.Thread), kind: call.Kind, parent: call.Parent}
	if prev := c.groups[gk]; prev != nil {
		delta.pair(id, prev.name).indirect.Add(max(cfg.freq.Duration(call.Start-prev.end), 0))
		prev.name, prev.end = id, call.End
		return
	}
	if call.Parent != events.NoEvent {
		c.groupsOf[call.Parent] = append(c.groupsOf[call.Parent], gk)
	}
	c.groups[gk] = &groupPrev{end: call.End, name: id, set: true}
}
