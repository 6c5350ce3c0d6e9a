package events

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// traceTableOrder fixes the fold order of ContentKey: schema
// registration order, so the key is stable across processes.
var traceTableOrder = []string{
	"meta", "ecalls", "ocalls", "aexs", "paging", "syncs", "threads",
	"enclaves", "switchless",
}

// ContentKey condenses every table's chunk hashes into one hex string:
// the content-addressed identity of the trace. Two traces holding equal
// events have equal keys however the events arrived; appending any
// event changes the key. The serve daemon uses it to cache full-report
// artifacts.
func (t *Trace) ContentKey() string {
	// The tables in traceTableOrder.
	tables := [...]interface{ ChunkHashes() []uint64 }{
		t.Meta, t.Ecalls, t.Ocalls, t.AEXs, t.Paging, t.Syncs, t.Threads,
		t.Enclaves, t.Switchless,
	}
	return contentKeyFrom(func(i int) []uint64 { return tables[i].ChunkHashes() })
}

// contentKeyFrom is the shared fold behind Trace.ContentKey and
// StreamTrace.ContentKey: both identities must agree so the serve
// daemon and the out-of-core CLI address the same cache entries.
// hashes(i) returns the chunk hashes of table traceTableOrder[i].
func contentKeyFrom(hashes func(i int) []uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	for i, name := range traceTableOrder {
		h.Write([]byte(name))
		chunks := hashes(i)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(chunks)))
		h.Write(buf[:])
		for _, c := range chunks {
			binary.LittleEndian.PutUint64(buf[:], c)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
