// Package analyzer implements the sgx-perf analyser (§4.3): general
// statistics, histograms and scatter series, call graphs with direct and
// indirect parents (Fig. 4), detectors for the five SGX performance
// anti-patterns of Table 1 (SISC, SDSC, SNC, SSC, paging) using the
// paper's weighted-ratio rules (Equations 1–3), and enclave-interface
// security hints (§3.6, §4.3.2).
//
// One engine computes every report: the streaming fold (fold.go). A
// saved trace streams through it chunk by chunk (AnalyzeStream); rows
// held in memory in any order — a resident trace's tables
// (Analyzer.Analyze) or a live collector's delivered batches — are put
// in time order and folded by AnalyzeUnordered.
package analyzer

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
)

// ErrNoTrace reports that an analysis was requested without a trace —
// typically a logger that was never attached or was detached before its
// trace was taken. Test with errors.Is.
var ErrNoTrace = errors.New("no trace to analyze")

// Weights holds every configurable threshold of the detectors, with the
// paper's published defaults.
type Weights struct {
	// Moving/duplication (Equation 1): flag a call when ≥Move1 of its
	// executions are shorter than 1µs, or ≥Move5 shorter than 5µs, or
	// ≥Move10 shorter than 10µs.
	Move1, Move5, Move10 float64

	// Reordering (Equation 2): weighted share of calls issued in the
	// first/last 10µs (weight ReorderW10) and 10–20µs band (ReorderW20)
	// of their direct parent must reach ReorderThreshold.
	ReorderW10, ReorderW20, ReorderThreshold float64

	// Merging/batching (Equation 3): a pair is considered when the parent
	// is the call's indirect parent in at least MergeMinPairFrac of its
	// executions (λ); gap-band weights (α, β, γ, δ) and the threshold ε.
	MergeMinPairFrac                     float64
	MergeW1, MergeW5, MergeW10, MergeW20 float64
	MergeThreshold                       float64

	// SSC: minimum number of sync ocalls before the detector fires, and
	// the duration below which a wake ocall counts as short.
	SyncMinOcalls  int
	SyncShortLimit time.Duration

	// Paging: minimum number of paging events before the detector fires.
	PagingMinEvents int
}

// DefaultWeights returns the defaults from §4.3.2 (obtained by the authors
// through experimentation).
func DefaultWeights() Weights {
	return Weights{
		Move1:  0.35,
		Move5:  0.50,
		Move10: 0.65,

		ReorderW10:       1.00,
		ReorderW20:       0.75,
		ReorderThreshold: 0.50,

		MergeMinPairFrac: 0.35,
		MergeW1:          1.00,
		MergeW5:          0.75,
		MergeW10:         0.50,
		MergeW20:         0.35,
		MergeThreshold:   0.35,

		SyncMinOcalls:  10,
		SyncShortLimit: 10 * time.Microsecond,

		PagingMinEvents: 1,
	}
}

// Options configures an analysis run.
type Options struct {
	Weights Weights
	// Interface supplies the enclave's EDL explicitly. When nil, the
	// analyser parses the EDL embedded in the trace, if any; with no EDL
	// at all it reports the smallest observed allow-sets (§4.3.2).
	Interface *edl.Interface
	// Enclave restricts the analysis to one enclave's events (0 = all).
	// Traces from multi-enclave applications — SecureKeeper spawns one
	// enclave per client (§5.2.4) — can be dissected per enclave.
	Enclave sgx.EnclaveID
}

// Analyzer computes a Report from a resident trace.
type Analyzer struct {
	trace *events.Trace
	opts  Options
	iface *edl.Interface
}

// New prepares an analyser over the trace. A nil trace returns an error
// wrapping ErrNoTrace.
func New(trace *events.Trace, opts Options) (*Analyzer, error) {
	if trace == nil {
		return nil, fmt.Errorf("analyzer: %w", ErrNoTrace)
	}
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	iface := opts.Interface
	if iface == nil {
		iface = interfaceFromMetas(trace.Enclaves.Rows())
	}
	return &Analyzer{trace: trace, opts: opts, iface: iface}, nil
}

// Interface returns the EDL interface in use (explicit or recovered), or
// nil.
func (a *Analyzer) Interface() *edl.Interface { return a.iface }

// Analyze produces the full report. It folds the trace's own events in
// time order — ecalls and ocalls by (Start, ID), paging by (Time, ID),
// ties in storage order as events.StreamSort leaves them — through the
// same sweep AnalyzeStream runs over a saved file, so the two reports
// are reflect.DeepEqual on the same events whatever order the trace
// stores them in.
//
// A call's Parent link resolves to a direct parent only when that
// parent started before the call and is still running when it starts
// (P.Start <= C.Start <= P.End, ties broken by event ID). Children that
// start after their parent ended count as unparented for the reorder
// detector, the call graph and the security hints, and chain among
// themselves as their own indirect-parent group (Fig. 4).
func (a *Analyzer) Analyze() *Report {
	r, _ := a.AnalyzeContext(context.Background())
	return r
}

// AnalyzeContext is Analyze with cooperative cancellation: the call
// returns ctx.Err() with a nil report once ctx is done. Cancellation is
// observed between the sort, the sweep and report assembly, so an
// uncancelled AnalyzeContext produces exactly Analyze's report.
func (a *Analyzer) AnalyzeContext(ctx context.Context) (*Report, error) {
	opts := a.opts
	opts.Interface = a.iface
	return AnalyzeUnordered(ctx, NewTraceSource(a.trace), opts)
}

// Chunks is an in-memory fold feed: one table's rows as a list of
// chunks, in storage order.
type Chunks[T any] [][]T

func (s Chunks[T]) NumChunks() int           { return len(s) }
func (s Chunks[T]) Chunk(i int) ([]T, error) { return s[i], nil }

// AnalyzeUnordered is AnalyzeStream for a source whose tables hold
// their rows in any order: it reads the ecall, ocall and paging feeds
// into memory, puts them in the fold's order — by key, ties in feed
// order — and folds them. Feeds already in that order are folded in
// place; any other is fed through its sorted (key, position) records,
// gathered a chunk at a time. Both Analyzer.Analyze and the live
// collector's snapshots come from here.
func AnalyzeUnordered(ctx context.Context, src *StreamSource, opts Options) (*Report, error) {
	if src == nil {
		return nil, fmt.Errorf("analyzer: %w", ErrNoTrace)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	callKeyOf := func(ev *events.CallEvent) callKey { return callKey{ev.Start, ev.ID} }
	sorted := *src
	var err error
	if sorted.Ecalls, err = foldOrder(src.Ecalls, callKeyOf); err != nil {
		return nil, err
	}
	if sorted.Ocalls, err = foldOrder(src.Ocalls, callKeyOf); err != nil {
		return nil, err
	}
	if sorted.Paging, err = foldOrder(src.Paging, func(p *events.PagingEvent) callKey { return callKey{p.Time, p.ID} }); err != nil {
		return nil, err
	}
	return analyzeStream(ctx, &sorted, opts)
}

// foldOrder returns a feed of a table's rows in the fold's order: by
// key, ties in feed order. A feed already in that order is returned as
// its own chunks, without a copy; any other is returned as a gather
// over its rows' sorted (key, position) records. Either way the rows
// are the feed's as of the call. It keeps every chunk the feed
// returns, so it copies the chunks of a feed that recycles its rows at
// the next read (see ChunkSeq).
func foldOrder[T any](seq ChunkSeq[T], key func(*T) callKey) (ChunkSeq[T], error) {
	chunks := make(Chunks[T], seq.NumChunks())
	stable := stableRows(seq)
	for i := range chunks {
		rows, err := seq.Chunk(i)
		if err != nil {
			return nil, err
		}
		if !stable {
			rows = slices.Clone(rows)
		}
		chunks[i] = rows
	}
	if inFoldOrder(chunks, key) {
		return chunks, nil
	}
	n := 0
	for _, rows := range chunks {
		n += len(rows)
	}
	order := make([]rowPos, 0, n)
	for c, rows := range chunks {
		for i := range rows {
			order = append(order, rowPos{key(&rows[i]), int32(c), int32(i)})
		}
	}
	return &gather[T]{rows: chunks, order: sortRowPos(order), buf: make([]T, 0, min(n, gatherRows))}, nil
}

// gatherRows is the chunk length of a gather feed.
const gatherRows = 1024

// gather feeds a table's rows in the order of its position records,
// gatherRows at a time, copied into one recycled buffer: the rows a
// Chunk call returns stay valid until the next one (see ChunkSeq).
type gather[T any] struct {
	rows  Chunks[T]
	order []rowPos
	buf   []T
}

func (g *gather[T]) NumChunks() int { return (len(g.order) + gatherRows - 1) / gatherRows }

func (g *gather[T]) Chunk(i int) ([]T, error) {
	g.buf = g.buf[:0]
	for _, p := range g.order[i*gatherRows : min((i+1)*gatherRows, len(g.order))] {
		g.buf = append(g.buf, g.rows[p.chunk][p.row])
	}
	return g.buf, nil
}

// stableRows reports whether a feed's chunks stay valid across Chunk
// calls: Chunks, the resident tables' feed, hands out rows that never
// change, while any other feed, a stream cursor's among them, may
// recycle them.
func stableRows[T any](seq ChunkSeq[T]) bool {
	_, ok := seq.(Chunks[T])
	return ok
}

// inFoldOrder reports whether the chunks' rows are already sorted by key.
func inFoldOrder[T any](chunks [][]T, key func(*T) callKey) bool {
	var prev callKey
	first := true
	for _, rows := range chunks {
		for i := range rows {
			k := key(&rows[i])
			if !first && k.less(prev) {
				return false
			}
			prev, first = k, false
		}
	}
	return true
}

// rowPos is one row's fold key and storage position.
type rowPos struct {
	key        callKey
	chunk, row int32
}

// sortRowPos orders positions by key, ties in storage order: a stable
// LSD radix sort on the start time, one scatter pass per byte (skipping
// bytes every start shares), then a stable sort by event ID within each
// run of equal starts.
func sortRowPos(order []rowPos) []rowPos {
	// The sign bit is flipped so unsigned byte order is signed order.
	radixKey := func(p rowPos) uint64 { return uint64(p.key.start) ^ 1<<63 }
	var counts [8][256]int
	for _, p := range order {
		k := radixKey(p)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	tmp := make([]rowPos, len(order))
	for b := range counts {
		count := &counts[b]
		if len(order) == 0 || count[byte(radixKey(order[0])>>(8*b))] == len(order) {
			continue
		}
		next := 0
		for i, c := range count {
			count[i] = next
			next += c
		}
		for _, p := range order {
			d := byte(radixKey(p) >> (8 * b))
			tmp[count[d]] = p
			count[d]++
		}
		order, tmp = tmp, order
	}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j].key.start == order[i].key.start {
			j++
		}
		if j-i > 1 {
			slices.SortStableFunc(order[i:j], func(a, b rowPos) int { return cmp.Compare(a.key.id, b.key.id) })
		}
		i = j
	}
	return order
}

// scanCalls visits every call the enclave filter admits, ecalls first,
// in storage order, with its adjusted execution duration.
func (a *Analyzer) scanCalls(visit func(ev *events.CallEvent, adjusted time.Duration)) {
	freq, transition := a.trace.Frequency(), a.trace.TransitionCycles()
	for _, scan := range []func(func(int, events.CallEvent) bool){a.trace.Ecalls.Scan, a.trace.Ocalls.Scan} {
		scan(func(_ int, ev events.CallEvent) bool {
			if a.opts.Enclave == 0 || ev.Enclave == a.opts.Enclave {
				visit(&ev, adjustedDuration(&ev, freq, transition))
			}
			return true
		})
	}
}

// micros is a readability helper.
func micros(n int) time.Duration { return time.Duration(n) * time.Microsecond }
