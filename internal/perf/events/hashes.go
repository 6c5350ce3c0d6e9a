package events

import (
	"encoding/binary"
	"encoding/hex"
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
	tables := [...]interface {
		AppendChunkHashes(dst []uint64) []uint64
	}{
		t.Meta, t.Ecalls, t.Ocalls, t.AEXs, t.Paging, t.Syncs, t.Threads,
		t.Enclaves, t.Switchless,
	}
	return contentKeyFrom(func(dst []uint64, i int) []uint64 { return tables[i].AppendChunkHashes(dst) })
}

// contentKeyFrom is the shared fold behind Trace.ContentKey and
// StreamTrace.ContentKey: both identities must agree so the serve
// daemon and the out-of-core CLI address the same cache entries.
// appendHashes(dst, i) appends the chunk hashes of table
// traceTableOrder[i] to dst; every table is read into one buffer.
func contentKeyFrom(appendHashes func(dst []uint64, i int) []uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	var chunks []uint64
	for i, name := range traceTableOrder {
		h.Write([]byte(name))
		chunks = appendHashes(chunks[:0], i)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(chunks)))
		h.Write(buf[:])
		for _, c := range chunks {
			binary.LittleEndian.PutUint64(buf[:], c)
			h.Write(buf[:])
		}
	}
	var key [16]byte
	binary.BigEndian.PutUint64(buf[:], h.Sum64())
	hex.Encode(key[:], buf[:])
	return string(key[:])
}
