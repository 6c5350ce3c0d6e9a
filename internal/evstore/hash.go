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
// the table (appends never recompute them), and the partial tail
// chunk's hash is memoised under (hashGen, row count): a repeat call on
// an unchanged table encodes nothing, and an append re-encodes only the
// tail it grew, once.
func (t *Table[T]) ChunkHashes() []uint64 {
	t.notifyRead()
	t.mu.RLock()
	gen, length := t.hashGen, t.length
	out := make([]uint64, len(t.chunks))
	n := copy(out, t.hashed)
	if last := len(t.chunks) - 1; n == last && t.tail.gen == gen && t.tail.rows == length {
		out[n] = t.tail.hash
		n++
	}
	var missing [][]T
	for _, c := range t.chunks[n:] {
		missing = append(missing, c[:len(c):len(c)])
	}
	t.mu.RUnlock()
	if len(missing) == 0 {
		return out
	}
	pool.ForEach(len(missing), func(i int) {
		out[n+i] = t.hashChunk(missing[i])
	})

	// Adopt the newly computed hashes. Within one hashGen rows are only
	// appended, so a full chunk never changes and the row count pins the
	// partial tail's rows: a hash computed from any snapshot stays
	// correct for that snapshot's (hashGen, row count). The rewrite paths
	// (Replace, Reset, readBinary) bump hashGen, which discards both.
	full := len(out)
	if len(missing[len(missing)-1]) < chunkSize {
		full--
	}
	t.mu.Lock()
	if t.hashGen == gen {
		if len(t.hashed) < full {
			t.hashed = append(t.hashed, out[len(t.hashed):full]...)
		}
		// Keep a memo of a longer table: this snapshot may be older.
		if full < len(out) && (t.tail.gen != gen || t.tail.rows < length) {
			t.tail = tailHash{gen: gen, rows: length, hash: out[full]}
		}
	}
	t.mu.Unlock()
	return out
}

// tailHash memoises the hash of a table's partial last chunk: it holds
// while the table is still at generation gen with rows rows.
type tailHash struct {
	gen  uint64
	rows int
	hash uint64
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

// invalidateHashesLocked drops the full-chunk hash cache and, by
// bumping hashGen, retires the tail memo; the rewrite paths (Replace,
// Reset, readBinary) call it with t.mu held.
func (t *Table[T]) invalidateHashesLocked() {
	t.hashed = nil
	t.hashGen++
}
