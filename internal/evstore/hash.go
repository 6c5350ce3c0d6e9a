package evstore

import (
	"hash/fnv"

	"sgxperf/internal/pool"
)

// ChunkHashes returns one 64-bit content hash per storage chunk, in
// chunk order. The hash covers the chunk's encoded payload (the same
// bytes writeBinary emits), so two tables whose
// chunks hold equal rows hash equally regardless of how the rows were
// inserted, and any row change changes its chunk's hash.
//
// This is the content-addressing primitive behind incremental
// re-analysis: the store is append-only and every chunk but the last is
// full and therefore immutable, so appending events only ever changes
// the trailing hashes — an artifact cache keyed per chunk hash
// invalidates nothing but the tail. Full-chunk hashes are cached inside
// the table (appends never recompute them); the partial tail chunk is
// rehashed on every call.
func (t *Table[T]) ChunkHashes() []uint64 {
	t.notifyRead()
	t.mu.RLock()
	gen := t.hashGen
	chunks := make([][]T, 0, len(t.chunks))
	for _, c := range t.chunks {
		chunks = append(chunks, c[:len(c):len(c)])
	}
	var cached []uint64
	if n := len(t.hashed); n > 0 && n <= len(chunks) {
		cached = t.hashed[:n:n]
	}
	t.mu.RUnlock()

	out := make([]uint64, len(chunks))
	n := copy(out, cached)
	if missing := len(chunks) - n; missing > 0 {
		pool.ForEach(missing, func(i int) {
			out[n+i] = t.hashChunk(chunks[n+i])
		})
	}

	// Adopt newly computed full-chunk hashes into the cache. Only full
	// chunks are cached: they are immutable, so a hash computed from any
	// snapshot stays correct. hashGen guards against a Replace/Reset/load
	// having swapped the contents since the snapshot.
	full := len(chunks)
	if full > 0 && len(chunks[full-1]) < chunkSize {
		full--
	}
	if full > n {
		t.mu.Lock()
		if t.hashGen == gen && len(t.hashed) < full {
			t.hashed = append([]uint64(nil), out[:full]...)
		}
		t.mu.Unlock()
	}
	return out
}

// hashChunk hashes one chunk's rows via its encoded payload.
func (t *Table[T]) hashChunk(rows []T) uint64 {
	return hashChunkPayload(t.encodeChunkPayload(rows))
}

// hashChunkPayload is the chunk content hash: FNV-1a over the codec byte
// and the payload — what the chunk index records for each chunk.
func hashChunkPayload(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte{codecColumnar})
	h.Write(payload)
	return h.Sum64()
}

// invalidateHashesLocked drops the full-chunk hash cache; the rewrite
// paths (Replace, Reset, readBinary) call it with t.mu held.
func (t *Table[T]) invalidateHashesLocked() {
	t.hashed = nil
	t.hashGen++
}
