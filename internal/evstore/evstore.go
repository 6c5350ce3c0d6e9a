// Package evstore is a small embedded, typed, append-oriented event
// database — the stand-in for the SQLite database sgx-perf serialises its
// events to (§4). It offers named, append-only tables of record types,
// read by scans, counts and chunk snapshots, and a chunked columnar file
// format (codec.go) so traces can be written by the logger and analysed
// later by a different process, just as the paper's toolchain does.
//
// Storage is chunked: rows live in fixed-size row chunks, so appends never
// reslice-copy the whole table and batch inserts from the logger's
// per-thread buffers amortise the table lock. Readers should prefer the
// allocation-free Scan/Count paths; Rows copies and is meant for tests and
// export.
package evstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// chunkSize is the fixed row-chunk capacity. Appends fill the last chunk
// and then allocate a fresh one, so no insert ever copies existing rows.
// The size must stay a power of two only for readability of the index
// maths; correctness needs it fixed per table.
const chunkSize = 1024

// Table is a typed, append-only table. It is safe for concurrent use: the
// logger inserts from many simulated threads.
type Table[T any] struct {
	name string

	// readHook, when set, runs before every read operation (without the
	// table lock held). The logger uses it to flush per-thread buffers so
	// readers always observe every event recorded before the read —
	// regardless of batching.
	readHook atomic.Pointer[func()]

	// codec encodes and decodes the table's chunks for Save, Load, the
	// stream cursors and ChunkHashes. Fixed at NewTable.
	codec RowCodec[T]

	mu     sync.RWMutex
	chunks [][]T
	length int

	// hashed caches ChunkHashes results for full (immutable) chunks and
	// tail memoises the partial last chunk's; hashGen invalidates both on
	// the rewrite paths (Replace, Reset, load). All guarded by mu.
	hashed  []uint64
	tail    tailHash
	hashGen uint64
}

// NewTable creates an empty table whose chunks serialise through codec.
// A table without a codec can hold and query rows, but it cannot be
// registered, saved or hashed.
func NewTable[T any](name string, codec RowCodec[T]) *Table[T] {
	return &Table[T]{name: name, codec: codec}
}

// Name returns the table's name.
func (t *Table[T]) Name() string { return t.name }

// SetReadHook installs f to run before every read operation. Writers (the
// logger) use it to flush buffered batches lazily; pass nil to clear.
func (t *Table[T]) SetReadHook(f func()) {
	if f == nil {
		t.readHook.Store(nil)
		return
	}
	t.readHook.Store(&f)
}

func (t *Table[T]) notifyRead() {
	if f := t.readHook.Load(); f != nil {
		(*f)()
	}
}

// appendLocked appends rows chunk by chunk. Caller holds t.mu.
func (t *Table[T]) appendLocked(rows []T) {
	for len(rows) > 0 {
		if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == chunkSize {
			t.chunks = append(t.chunks, make([]T, 0, chunkSize))
		}
		last := len(t.chunks) - 1
		free := chunkSize - len(t.chunks[last])
		take := len(rows)
		if take > free {
			take = free
		}
		t.chunks[last] = append(t.chunks[last], rows[:take]...)
		rows = rows[take:]
		t.length += take
	}
}

// Insert appends rows.
func (t *Table[T]) Insert(rows ...T) {
	if len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(rows)
}

// BatchInsert appends a whole buffer of rows under one lock acquisition —
// the flush path for per-shard writers.
func (t *Table[T]) BatchInsert(rows []T) {
	if len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(rows)
}

// Len returns the number of rows.
func (t *Table[T]) Len() int {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.length
}

// At returns row i.
func (t *Table[T]) At(i int) T {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= t.length {
		panic(fmt.Sprintf("evstore: index %d out of range [0,%d)", i, t.length))
	}
	return t.chunks[i/chunkSize][i%chunkSize]
}

// Rows returns a copy of all rows. Prefer Scan on hot paths; Rows exists
// for tests and export.
func (t *Table[T]) Rows() []T {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowsLocked()
}

func (t *Table[T]) rowsLocked() []T {
	out := make([]T, 0, t.length)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Count returns the number of rows matching pred (nil counts all).
func (t *Table[T]) Count(pred func(T) bool) int {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if pred == nil {
		return t.length
	}
	n := 0
	for _, c := range t.chunks {
		for _, r := range c {
			if pred(r) {
				n++
			}
		}
	}
	return n
}

// Scan iterates rows in insertion order until yield returns false. It is
// the zero-copy read path: no rows are copied out and no allocation is
// made. The table lock is held for the duration of the scan, so yield must
// not call back into the same table's write path.
func (t *Table[T]) Scan(yield func(i int, row T) bool) {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := 0
	for _, c := range t.chunks {
		for j := range c {
			if !yield(i, c[j]) {
				return
			}
			i++
		}
	}
}

// ScanChunks yields each storage chunk in order until yield returns false.
// Chunks must be treated as read-only; this is the bulk zero-copy path for
// exporters.
func (t *Table[T]) ScanChunks(yield func(rows []T) bool) {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range t.chunks {
		if !yield(c) {
			return
		}
	}
}

// NumChunks returns the number of storage chunks currently backing the
// table.
func (t *Table[T]) NumChunks() int {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chunks)
}

// Chunks returns every storage chunk in order, each capped at its
// current length, read under one lock. Committed chunk prefixes are
// never rewritten (rows are only appended; Replace, Reset and Load swap
// in fresh chunks), so the slices stay valid after the lock is released
// and rows appended later never show through them. Callers must treat
// them as read-only.
func (t *Table[T]) Chunks() [][]T {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]T, len(t.chunks))
	for i, c := range t.chunks {
		out[i] = c[:len(c):len(c)]
	}
	return out
}

// Replace substitutes the table's entire contents. It exists for
// canonicalisation (sorting a trace into a deterministic order after
// concurrent recording); it is not a hot-path operation. A reader that
// keeps a position in the append-only rows, such as a live collector,
// does not expect a rewrite, so canonicalise only after it closes.
func (t *Table[T]) Replace(rows []T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chunks = nil
	t.length = 0
	t.invalidateHashesLocked()
	t.appendLocked(rows)
}

// Reset drops all rows.
func (t *Table[T]) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chunks = nil
	t.length = 0
	t.invalidateHashesLocked()
}

// table is the untyped view the DB uses for serialisation.
type table interface {
	Name() string
	writeBinary(w *countingWriter) (tableIndex, error)
	readBinary(cr *countingReader) (tableIndex, error)
}

// DB is a named collection of tables with a stable serialisation format.
type DB struct {
	mu     sync.Mutex
	tables []table
	byName map[string]table
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{byName: make(map[string]table)}
}

// Register attaches a table to the database. Registration order defines
// the serialisation order, so writers and readers must register the same
// tables in the same order (they share the schema definition in practice).
// A table without a codec is rejected.
func Register[T any](db *DB, t *Table[T]) error {
	if t.codec == nil {
		return fmt.Errorf("evstore: table %q has no codec", t.Name())
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.byName[t.Name()]; dup {
		return fmt.Errorf("evstore: duplicate table %q", t.Name())
	}
	db.tables = append(db.tables, t)
	db.byName[t.Name()] = t
	return nil
}

// TableNames lists registered tables in registration order.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, len(db.tables))
	for i, t := range db.tables {
		out[i] = t.Name()
	}
	return out
}

// Save serialises every registered table to w in the chunked columnar
// format (codec.go).
func (db *DB) Save(w io.Writer) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.saveBinary(w)
}

// Load restores table contents from r, materialising every table into
// memory — it is the resident read path. The registered schema must
// match the one the file was written with, and any input that is not a
// trace file of the current format version is ErrCorrupt. Chunks decode
// a window at a time, so transient memory stays bounded even though the
// tables end up resident; callers that only need a chunk-at-a-time pass
// over a saved file should use OpenStream and cursors instead of loading
// at all.
func (db *DB) Load(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.loadBinary(bufio.NewReaderSize(r, 1<<16))
}

// SaveFile writes the database to a file path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("evstore: sync: %w", err)
	}
	return nil
}

// LoadFile reads the database from a file path.
func (db *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	defer f.Close()
	return db.Load(f)
}
