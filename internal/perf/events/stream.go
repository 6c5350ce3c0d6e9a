package events

import (
	"fmt"

	"sgxperf/internal/evstore"
	"sgxperf/internal/vtime"
)

// StreamTrace is the out-of-core view of a saved trace: the tiny header
// tables (meta, enclaves) are materialised, everything else is read
// chunk-by-chunk through evstore stream cursors. It is the disk-side
// counterpart of Trace for analyses that must not load whole tables —
// a multi-GiB paging-stress trace analyses in O(chunk) memory.
type StreamTrace struct {
	sr       *evstore.StreamReader
	meta     []TraceMeta
	enclaves []EnclaveMeta
}

// OpenStreamTrace opens the trace file at path for streaming access.
func OpenStreamTrace(path string) (*StreamTrace, error) {
	sr, err := evstore.OpenStream(path)
	if err != nil {
		return nil, err
	}
	st, err := newStreamTrace(sr)
	if err != nil {
		sr.Close()
		return nil, err
	}
	return st, nil
}

// NewStreamTrace wraps an already-open stream reader.
func NewStreamTrace(sr *evstore.StreamReader) (*StreamTrace, error) {
	return newStreamTrace(sr)
}

func newStreamTrace(sr *evstore.StreamReader) (*StreamTrace, error) {
	st := &StreamTrace{sr: sr}
	for _, name := range traceTableOrder {
		if _, ok := sr.Rows(name); !ok {
			return nil, fmt.Errorf("events: stream has no %q table", name)
		}
	}
	// The header tables are a handful of rows; materialise them so
	// Frequency, TransitionCycles and the EDL are as cheap as on a
	// resident trace.
	if err := drainCursor[TraceMeta](st.sr, "meta", metaCodec{}, &st.meta); err != nil {
		return nil, err
	}
	if err := drainCursor[EnclaveMeta](st.sr, "enclaves", enclaveCodec{}, &st.enclaves); err != nil {
		return nil, err
	}
	return st, nil
}

func drainCursor[T any](sr *evstore.StreamReader, name string, codec evstore.RowCodec[T], out *[]T) error {
	cur, err := evstore.NewStreamCursor[T](sr, name, codec)
	if err != nil {
		return err
	}
	for {
		rows, err := cur.Next()
		if err != nil {
			return err
		}
		if rows == nil {
			return nil
		}
		*out = append(*out, rows...)
	}
}

// Close releases the underlying file.
func (st *StreamTrace) Close() error { return st.sr.Close() }

// Meta returns the trace's header rows.
func (st *StreamTrace) Meta() []TraceMeta { return st.meta }

// Enclaves returns the trace's enclave descriptors.
func (st *StreamTrace) Enclaves() []EnclaveMeta { return st.enclaves }

// Frequency mirrors Trace.Frequency.
func (st *StreamTrace) Frequency() vtime.Frequency {
	if len(st.meta) > 0 && st.meta[0].FrequencyHz > 0 {
		return vtime.Frequency(st.meta[0].FrequencyHz)
	}
	return vtime.DefaultFrequency
}

// TransitionCycles mirrors Trace.TransitionCycles.
func (st *StreamTrace) TransitionCycles() vtime.Cycles {
	if len(st.meta) > 0 {
		return vtime.Cycles(st.meta[0].TransitionCycles)
	}
	return 0
}

// Workload returns the recorded workload name, if any.
func (st *StreamTrace) Workload() string {
	if len(st.meta) > 0 {
		return st.meta[0].Workload
	}
	return ""
}

// Rows returns the named table's total row count.
func (st *StreamTrace) Rows(name string) int {
	n, _ := st.sr.Rows(name)
	return n
}

// ContentKey computes the trace's content-addressed identity from the
// file's chunk index alone — the same key Trace.ContentKey computes
// after a full load, without decoding a single event row.
func (st *StreamTrace) ContentKey() string {
	return contentKeyFrom(func(dst []uint64, i int) []uint64 { return st.sr.AppendChunkHashes(dst, traceTableOrder[i]) })
}

// Ecalls opens a fresh cursor over the ecall table.
func (st *StreamTrace) Ecalls() (*evstore.StreamCursor[CallEvent], error) {
	return evstore.NewStreamCursor[CallEvent](st.sr, "ecalls", callCodec{})
}

// Ocalls opens a fresh cursor over the ocall table.
func (st *StreamTrace) Ocalls() (*evstore.StreamCursor[CallEvent], error) {
	return evstore.NewStreamCursor[CallEvent](st.sr, "ocalls", callCodec{})
}

// AEXs opens a fresh cursor over the AEX table.
func (st *StreamTrace) AEXs() (*evstore.StreamCursor[AEXEvent], error) {
	return evstore.NewStreamCursor[AEXEvent](st.sr, "aexs", aexCodec{})
}

// Paging opens a fresh cursor over the paging table.
func (st *StreamTrace) Paging() (*evstore.StreamCursor[PagingEvent], error) {
	return evstore.NewStreamCursor[PagingEvent](st.sr, "paging", pagingCodec{})
}

// Syncs opens a fresh cursor over the sync table.
func (st *StreamTrace) Syncs() (*evstore.StreamCursor[SyncEvent], error) {
	return evstore.NewStreamCursor[SyncEvent](st.sr, "syncs", syncCodec{})
}

// Threads opens a fresh cursor over the thread table.
func (st *StreamTrace) Threads() (*evstore.StreamCursor[ThreadEvent], error) {
	return evstore.NewStreamCursor[ThreadEvent](st.sr, "threads", threadCodec{})
}

// Switchless opens a fresh cursor over the switchless table.
func (st *StreamTrace) Switchless() (*evstore.StreamCursor[SwitchlessEvent], error) {
	return evstore.NewStreamCursor[SwitchlessEvent](st.sr, "switchless", switchlessCodec{})
}
