package analyzer

import (
	"context"
	"fmt"

	"sgxperf/internal/edl"
	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/vtime"
)

// StreamSource feeds the streaming fold. It abstracts over where the
// chunks come from: resident evstore tables (NewTraceSource) or a saved
// trace file read chunk-by-chunk (NewStreamTraceSource). Only the
// header tables are materialised; everything else is pulled one chunk
// at a time by the fold.
type StreamSource struct {
	Workload   string
	Enclaves   []events.EnclaveMeta
	Freq       vtime.Frequency
	Transition vtime.Cycles

	Ecalls     ChunkSeq[events.CallEvent]
	Ocalls     ChunkSeq[events.CallEvent]
	Paging     ChunkSeq[events.PagingEvent]
	Syncs      ChunkSeq[events.SyncEvent]
	Switchless ChunkSeq[events.SwitchlessEvent]
}

// cursorSeq adapts an evstore stream cursor to ChunkSeq. Chunk seeks,
// so each of the read-ahead's two feeds can read every other chunk. The
// cursor decodes every chunk into one recycled buffer, so the rows
// Chunk returns stay valid only until its next call.
type cursorSeq[T any] struct{ c *evstore.StreamCursor[T] }

// fork opens a second feed over the same table with buffers of its own:
// the fold reads one chunk ahead through it.
func (s cursorSeq[T]) fork() ChunkSeq[T] { return cursorSeq[T]{s.c.Clone()} }

func (s cursorSeq[T]) NumChunks() int { return s.c.NumChunks() }

func (s cursorSeq[T]) Chunk(i int) ([]T, error) {
	if err := s.c.Seek(i); err != nil {
		return nil, err
	}
	rows, err := s.c.Next()
	if err != nil {
		return nil, err
	}
	if rows == nil {
		return nil, fmt.Errorf("analyzer: chunk %d out of range", i)
	}
	return rows, nil
}

// CursorSeq exposes a stream cursor as a fold feed.
func CursorSeq[T any](c *evstore.StreamCursor[T]) ChunkSeq[T] { return cursorSeq[T]{c} }

// NewTraceSource feeds the fold from a resident trace's tables, as
// their chunks stand at the call. The order-sensitive tables must be
// stream-sorted (events.StreamSort); otherwise AnalyzeStream returns
// ErrUnsorted.
func NewTraceSource(t *events.Trace) *StreamSource {
	var enclaves []events.EnclaveMeta
	t.Enclaves.Scan(func(_ int, m events.EnclaveMeta) bool {
		enclaves = append(enclaves, m)
		return true
	})
	workload := ""
	if t.Meta.Len() > 0 {
		workload = t.Meta.At(0).Workload
	}
	return &StreamSource{
		Workload:   workload,
		Enclaves:   enclaves,
		Freq:       t.Frequency(),
		Transition: t.TransitionCycles(),
		Ecalls:     Chunks[events.CallEvent](t.Ecalls.Chunks()),
		Ocalls:     Chunks[events.CallEvent](t.Ocalls.Chunks()),
		Paging:     Chunks[events.PagingEvent](t.Paging.Chunks()),
		Syncs:      Chunks[events.SyncEvent](t.Syncs.Chunks()),
		Switchless: Chunks[events.SwitchlessEvent](t.Switchless.Chunks()),
	}
}

// NewStreamTraceSource feeds the fold from a saved trace file without
// loading it: each table is an on-demand chunk cursor.
func NewStreamTraceSource(st *events.StreamTrace) (*StreamSource, error) {
	ec, err := st.Ecalls()
	if err != nil {
		return nil, err
	}
	oc, err := st.Ocalls()
	if err != nil {
		return nil, err
	}
	pc, err := st.Paging()
	if err != nil {
		return nil, err
	}
	sc, err := st.Syncs()
	if err != nil {
		return nil, err
	}
	wc, err := st.Switchless()
	if err != nil {
		return nil, err
	}
	return &StreamSource{
		Workload:   st.Workload(),
		Enclaves:   st.Enclaves(),
		Freq:       st.Frequency(),
		Transition: st.TransitionCycles(),
		Ecalls:     CursorSeq(ec),
		Ocalls:     CursorSeq(oc),
		Paging:     CursorSeq(pc),
		Syncs:      CursorSeq(sc),
		Switchless: CursorSeq(wc),
	}, nil
}

// Interface recovers the enclave interface embedded in the source's
// enclave descriptors (the first parseable EDL), or nil.
func (src *StreamSource) Interface() *edl.Interface {
	return interfaceFromMetas(src.Enclaves)
}

// interfaceFromMetas recovers the first parseable embedded EDL.
func interfaceFromMetas(metas []events.EnclaveMeta) *edl.Interface {
	for _, meta := range metas {
		if meta.EDL == "" {
			continue
		}
		if iface, _, err := edl.Parse(meta.EDL); err == nil {
			return iface
		}
	}
	return nil
}

// AnalyzeStream analyses a trace through the bounded-memory fold:
// one order-free prescan over syncs and switchless, then a single merge
// sweep over the time-ordered ecall/ocall/paging chunks. Memory stays
// O(chunk size + open calls + threads) however long the trace is. The
// report is reflect.DeepEqual to New(trace, opts).Analyze() on the same
// events (see TestAnalyzeStreamingMatchesResident). Returns ErrUnsorted
// when the order-sensitive tables are not stream-sorted.
func AnalyzeStream(src *StreamSource, opts Options) (*Report, error) {
	return analyzeStream(context.Background(), src, opts)
}

// analyzeStream is AnalyzeStream with cancellation observed between the
// prescans, the sweep and report assembly.
func analyzeStream(ctx context.Context, src *StreamSource, opts Options) (*Report, error) {
	if src == nil {
		return nil, fmt.Errorf("analyzer: %w", ErrNoTrace)
	}
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	iface := opts.Interface
	if iface == nil {
		iface = interfaceFromMetas(src.Enclaves)
	}

	pre, err := prescanSyncs(src.Syncs)
	if err != nil {
		return nil, err
	}
	swAgg, err := foldSwitchless(src.Switchless)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cfg := &foldConfig{
		weights:    opts.Weights,
		freq:       src.Freq,
		transition: src.Transition,
		enclave:    opts.Enclave,
		syncs:      newSyncRefs(pre.refs),
	}
	delta, err := fold(cfg, foldInput{
		ecalls: src.Ecalls,
		ocalls: src.Ocalls,
		paging: src.Paging,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sw := SwitchlessStatsFrom(swAgg, src.Freq)
	return assembleReport(src.Workload, cfg, delta, pre, sw, iface), nil
}
