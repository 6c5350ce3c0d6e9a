package analyzer

// The streaming fold: the analyser's per-table scans expressed as a
// single merge sweep over time-ordered ecall/ocall/paging chunks with
// carry state bounded by O(open calls + threads), independent of trace
// length. The sweep feeds per-name aggregates — duration histograms,
// the Equation 2 and 3 accumulators (ReorderAgg, MergeAgg), parent
// counts — and the security-hint evidence; AssembleReport renders them
// into a Report.
// Every report comes from here: Analyzer.Analyze folds sorted copies of
// a resident trace, AnalyzeStream folds a saved file chunk by chunk and
// the serve daemon folds cached windows.
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
// Carry bounds. Closed calls leave the open-call map in sweeps that run
// whenever the map has doubled since the last one (and at every window
// bound), so the map holds at most about twice the concurrently open
// calls; for nested traces that and the per-thread maxEnd are
// O(threads). Indirect-parent group slots go with their parent call;
// only top-level groups (one per thread × kind) and groups under
// parents outside the enclave filter persist for the whole sweep.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// ErrUnsorted reports that a streamed table is not in the stream-sorted
// layout (events.StreamSort) the fold requires. Callers fall back to
// Analyzer.Analyze, which sorts copies of the tables first.
var ErrUnsorted = errors.New("analyzer: trace tables are not stream-sorted")

// ChunkSeq supplies one table's rows chunk-by-chunk with random access,
// so window recomputation can re-read only the chunks it needs. A
// resident evstore table, a stream cursor (see source.go) and in-memory
// Chunks satisfy it.
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

// foldPos is a resume position inside a ChunkSeq.
type foldPos struct {
	chunk, row int
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

type groupPrev struct {
	name string
	end  vtime.Cycles
}

// FoldCarry is the cross-chunk state of a fold: cursor resume
// positions, monotonicity watermarks, the open-call set, the
// indirect-parent group slots and the per-thread latest call end. Its
// size is bounded by the number of concurrently open calls and threads,
// never by trace length.
type FoldCarry struct {
	ePos, oPos, pPos   foldPos
	lastCall, lastPage callKey
	seenCall, seenPage bool

	open     map[events.EventID]openCall
	groups   map[foldGroup]*groupPrev
	groupsOf map[events.EventID][]foldGroup
	maxEnd   map[sgx.ThreadID]vtime.Cycles
	// purgeAt is the open-set size that triggers the next sweep for
	// closed calls, keeping eviction amortised O(1) per call. A closed
	// call still in the set is never resolved as a parent: the lookup
	// closes it on the spot.
	purgeAt int
}

// NewFoldCarry returns the empty carry a fold starts from.
func NewFoldCarry() *FoldCarry {
	return &FoldCarry{
		open:     make(map[events.EventID]openCall),
		groups:   make(map[foldGroup]*groupPrev),
		groupsOf: make(map[events.EventID][]foldGroup),
		maxEnd:   make(map[sgx.ThreadID]vtime.Cycles),
	}
}

// Clone deep-copies the carry so a cached carry-out can seed the next
// window without aliasing.
func (c *FoldCarry) Clone() *FoldCarry {
	out := &FoldCarry{
		ePos: c.ePos, oPos: c.oPos, pPos: c.pPos,
		lastCall: c.lastCall, lastPage: c.lastPage,
		seenCall: c.seenCall, seenPage: c.seenPage,
		open:     make(map[events.EventID]openCall, len(c.open)),
		groups:   make(map[foldGroup]*groupPrev, len(c.groups)),
		groupsOf: make(map[events.EventID][]foldGroup, len(c.groupsOf)),
		maxEnd:   make(map[sgx.ThreadID]vtime.Cycles, len(c.maxEnd)),
		purgeAt:  c.purgeAt,
	}
	for k, v := range c.open {
		out.open[k] = v
	}
	for k, v := range c.groups {
		prev := *v
		out.groups[k] = &prev
	}
	for k, v := range c.groupsOf {
		out.groupsOf[k] = append([]foldGroup(nil), v...)
	}
	for k, v := range c.maxEnd {
		out.maxEnd[k] = v
	}
	return out
}

// Hash digests the carry's semantic content (positions, watermarks,
// open calls, group slots, thread watermarks) in a sorted, deterministic
// order, so equal carries — however produced — hash equally. The serve
// daemon chains it into window cache keys.
func (c *FoldCarry) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	ws := func(s string) {
		wi(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, p := range []foldPos{c.ePos, c.oPos, c.pPos} {
		wi(int64(p.chunk))
		wi(int64(p.row))
	}
	for _, k := range []callKey{c.lastCall, c.lastPage} {
		wi(int64(k.start))
		wi(int64(k.id))
	}
	wi(int64(boolInt(c.seenCall)))
	wi(int64(boolInt(c.seenPage)))

	ids := make([]events.EventID, 0, len(c.open))
	for id := range c.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	wi(int64(len(ids)))
	for _, id := range ids {
		oc := c.open[id]
		wi(int64(id))
		ws(oc.name)
		wi(int64(oc.start))
		wi(int64(oc.end))
	}

	gks := make([]foldGroup, 0, len(c.groups))
	for k := range c.groups {
		gks = append(gks, k)
	}
	sort.Slice(gks, func(i, j int) bool {
		a, b := gks[i], gks[j]
		if a.thread != b.thread {
			return a.thread < b.thread
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.parent < b.parent
	})
	wi(int64(len(gks)))
	for _, k := range gks {
		wi(k.thread)
		wi(int64(k.kind))
		wi(int64(k.parent))
		p := c.groups[k]
		ws(p.name)
		wi(int64(p.end))
	}

	ths := make([]sgx.ThreadID, 0, len(c.maxEnd))
	for t := range c.maxEnd {
		ths = append(ths, t)
	}
	sort.Slice(ths, func(i, j int) bool { return ths[i] < ths[j] })
	wi(int64(len(ths)))
	for _, t := range ths {
		wi(int64(t))
		wi(int64(c.maxEnd[t]))
	}
	return h.Sum64()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// close drops one open call and the group slots keyed under it.
func (c *FoldCarry) close(id events.EventID) {
	delete(c.open, id)
	c.dropSlots(id)
}

// dropSlots deletes the group slots keyed under a closed parent: later
// children of a closed parent are late and start a chain of their own.
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

// evict closes every open call that ended before pos. Closed calls
// outnumber the survivors, so the map is cleared and the few survivors
// reinserted rather than the many deleted.
func (c *FoldCarry) evict(pos vtime.Cycles) {
	var live []openEntry
	for id, oc := range c.open {
		if oc.end >= pos {
			live = append(live, openEntry{id, oc})
		} else {
			c.dropSlots(id)
		}
	}
	clear(c.open)
	for _, e := range live {
		c.open[e.id] = e.call
	}
	c.purgeAt = 2*len(live) + 64
}

// openEntry is one open call carried across an eviction sweep.
type openEntry struct {
	id   events.EventID
	call openCall
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

// FoldDelta is one window's (or one whole sweep's) aggregate output.
// Deltas merge associatively in window order; a merged delta equals the
// delta of the concatenated input.
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

// addParents counts n executions under one resolved direct parent.
func (na *NameAgg) addParents(parent string, n int) {
	if na.Parents == nil {
		na.Parents = make(map[string]int)
	}
	na.Parents[parent] += n
}

func (d *FoldDelta) observed(parent string) map[string]bool {
	s := d.Observed[parent]
	if s == nil {
		s = make(map[string]bool)
		d.Observed[parent] = s
	}
	return s
}

// MergeFrom folds a later window's delta into this one. Window order
// matters only for the first-occurrence fields of NameAgg.
func (d *FoldDelta) MergeFrom(o *FoldDelta) {
	for name, na := range o.Names {
		mine := d.Names[name]
		if mine == nil {
			mine = &NameAgg{Kind: na.Kind, CallID: na.CallID, Hist: make(map[time.Duration]int)}
			d.Names[name] = mine
		}
		mine.Count += na.Count
		mine.TotalAEX += na.TotalAEX
		for dur, n := range na.Hist {
			mine.Hist[dur] += n
		}
		mine.Reorder.Total += na.Reorder.Total
		mine.Reorder.S10 += na.Reorder.S10
		mine.Reorder.S20 += na.Reorder.S20
		mine.Reorder.E10 += na.Reorder.E10
		mine.Reorder.E20 += na.Reorder.E20
		for pn, n := range na.Parents {
			mine.addParents(pn, n)
		}
		for pn, g := range na.Indirect {
			m := mine.indirect(pn)
			m.Count += g.Count
			m.G1 += g.G1
			m.G5 += g.G5
			m.G10 += g.G10
			m.G20 += g.G20
		}
		mine.TopLevel = mine.TopLevel || na.TopLevel
	}
	d.Paging.PageIns += o.Paging.PageIns
	d.Paging.PageOuts += o.Paging.PageOuts
	d.Paging.DuringCalls += o.Paging.DuringCalls
	for r, n := range o.Paging.ByRegion {
		d.Paging.ByRegion[r] += n
	}
	d.ShortWakes += o.ShortWakes
	for parent, set := range o.Observed {
		mine := d.observed(parent)
		for n := range set {
			mine[n] = true
		}
	}
}

// seqCursor walks one ChunkSeq from a resume position, holding at most
// one chunk resident.
type seqCursor[T any] struct {
	seq        ChunkSeq[T]
	n          int
	chunk, row int
	buf        []T
	loaded     bool
}

func newSeqCursor[T any](seq ChunkSeq[T], pos foldPos) *seqCursor[T] {
	return &seqCursor[T]{seq: seq, n: seq.NumChunks(), chunk: pos.chunk, row: pos.row}
}

// head returns the current row without consuming it, or nil at EOF.
func (c *seqCursor[T]) head() (*T, error) {
	for c.chunk < c.n {
		if !c.loaded {
			buf, err := c.seq.Chunk(c.chunk)
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

func (c *seqCursor[T]) pos() foldPos { return foldPos{c.chunk, c.row} }

// WindowBound returns the exclusive time bound of window k: the
// earliest first-row Start of the two call tables' chunk k+1. Events at
// or after the bound belong to later windows. ok=false means neither
// table has a chunk k+1, so window k is the final one.
func WindowBound(in FoldInput, k int) (vtime.Cycles, bool, error) {
	var bound vtime.Cycles
	ok := false
	for _, seq := range []ChunkSeq[events.CallEvent]{in.Ecalls, in.Ocalls} {
		if seq == nil || k+1 >= seq.NumChunks() {
			continue
		}
		rows, err := seq.Chunk(k + 1)
		if err != nil {
			return 0, false, err
		}
		if len(rows) == 0 {
			continue
		}
		if !ok || rows[0].Start < bound {
			bound = rows[0].Start
			ok = true
		}
	}
	return bound, ok, nil
}

// FoldWindow runs the merge sweep from carry's resume positions up to
// (but excluding) events at or after bound, or to end of data when
// final is set. It returns the window's delta and the carry-out; the
// carry-in is not mutated. The carry-out is canonical for (carry-in,
// consumed events): open calls ending before the bound are evicted, so
// its Hash depends only on semantic content.
func FoldWindow(cfg *FoldConfig, carryIn *FoldCarry, in FoldInput, bound vtime.Cycles, final bool) (*FoldDelta, *FoldCarry, error) {
	carry := carryIn.Clone()
	delta := NewFoldDelta()

	ec := newSeqCursor[events.CallEvent](in.Ecalls, carry.ePos)
	oc := newSeqCursor[events.CallEvent](in.Ocalls, carry.oPos)
	pc := newSeqCursor[events.PagingEvent](in.Paging, carry.pPos)

	for {
		e, err := ec.head()
		if err != nil {
			return nil, nil, err
		}
		o, err := oc.head()
		if err != nil {
			return nil, nil, err
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
		if call != nil && !final && call.Start >= bound {
			call = nil
		}

		p, err := pc.head()
		if err != nil {
			return nil, nil, err
		}
		if p != nil && !final && p.Time >= bound {
			p = nil
		}

		// Paging events interleave after calls sharing their timestamp:
		// a call counts as spanning a paging event when
		// Start <= Time <= End, inclusive.
		if p != nil && (call == nil || p.Time < call.Start) {
			k := callKey{p.Time, p.ID}
			if carry.seenPage && k.less(carry.lastPage) {
				return nil, nil, ErrUnsorted
			}
			carry.lastPage, carry.seenPage = k, true
			if p.Kind == events.PageIn {
				delta.Paging.PageIns++
			} else {
				delta.Paging.PageOuts++
			}
			delta.Paging.ByRegion[p.PageKind]++
			if me, ok := carry.maxEnd[p.Thread]; ok && me >= p.Time {
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
			return nil, nil, ErrUnsorted
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

	if !final {
		carry.evict(bound)
	}
	carry.ePos, carry.oPos, carry.pPos = ec.pos(), oc.pos(), pc.pos()
	return delta, carry, nil
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

	if call.Parent == events.NoEvent {
		na.TopLevel = true
	} else if p, ok := carry.open[call.Parent]; ok && p.end < call.Start {
		carry.close(call.Parent)
	} else if ok {
		na.Reorder.Add(cfg.Freq.Duration(call.Start-p.start), cfg.Freq.Duration(p.end-call.End))
		na.addParents(p.name, 1)
		if call.Kind == events.KindEcall {
			delta.observed(p.name)[call.Name] = true
		}
	}

	gk := foldGroup{thread: int64(call.Thread), kind: call.Kind, parent: call.Parent}
	if prev := carry.groups[gk]; prev != nil {
		na.indirect(prev.name).Add(max(cfg.Freq.Duration(call.Start-prev.end), 0))
		prev.name, prev.end = call.Name, call.End
	} else {
		if call.Parent != events.NoEvent {
			carry.groupsOf[call.Parent] = append(carry.groupsOf[call.Parent], gk)
		}
		carry.groups[gk] = &groupPrev{name: call.Name, end: call.End}
	}

	carry.open[call.ID] = openCall{name: call.Name, start: call.Start, end: call.End}
	if call.End > carry.maxEnd[call.Thread] {
		carry.maxEnd[call.Thread] = call.End
	}
}
