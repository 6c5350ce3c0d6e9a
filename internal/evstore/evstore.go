// Package evstore is a small embedded, typed, append-oriented event
// database — the stand-in for the SQLite database sgx-perf serialises its
// events to (§4). It offers named tables of record types, predicate
// queries, ordering, simple aggregation, and a chunked columnar file
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
	"sort"
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
	// subs are the insert subscribers, guarded by mu. Inserts already hold
	// the write lock, so notification needs no extra synchronisation and a
	// table with no subscribers pays only a nil-slice check.
	subs []*subscriber[T]

	// hashed caches ChunkHashes results for full (immutable) chunks and
	// tail memoises the partial last chunk's; hashGen invalidates both on
	// the rewrite paths (Replace, Reset, load). All guarded by mu.
	hashed  []uint64
	tail    tailHash
	hashGen uint64
}

// subscriber is one registered insert tap. The indirection lets cancel
// find its own entry after other subscribers come and go.
type subscriber[T any] struct {
	fn func(rows []T)
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

// notifySubsLocked delivers the committed rows in [start, start+n) to
// every subscriber as chunk-backed subslices. Committed chunk prefixes
// are never rewritten (the store is append-only), so the slices stay
// valid after the lock is released without any copy. Caller holds t.mu.
func (t *Table[T]) notifySubsLocked(start, n int) {
	if len(t.subs) == 0 || n == 0 {
		return
	}
	for n > 0 {
		c := t.chunks[start/chunkSize]
		off := start % chunkSize
		take := len(c) - off
		if take > n {
			take = n
		}
		rows := c[off : off+take : off+take]
		for _, s := range t.subs {
			s.fn(rows)
		}
		start += take
		n -= take
	}
}

// Insert appends rows.
func (t *Table[T]) Insert(rows ...T) {
	if len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.length
	t.appendLocked(rows)
	t.notifySubsLocked(start, len(rows))
}

// BatchInsert appends a whole buffer of rows under one lock acquisition —
// the flush path for per-shard writers.
func (t *Table[T]) BatchInsert(rows []T) {
	if len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.length
	t.appendLocked(rows)
	t.notifySubsLocked(start, len(rows))
}

// Subscribe registers fn to observe every row inserted from now on, in
// commit order. With replay set, fn first receives every row already in
// the table; registration and replay happen atomically with respect to
// inserts, so the subscriber sees each row exactly once. fn runs with the
// table's write lock held: it must be fast, must treat the slice as
// read-only, and must not call back into the table (hand rows to another
// goroutine for real work). The returned cancel removes the subscription
// and is idempotent.
func (t *Table[T]) Subscribe(fn func(rows []T), replay bool) (cancel func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if replay {
		for _, c := range t.chunks {
			if len(c) > 0 {
				fn(c[:len(c):len(c)])
			}
		}
	}
	s := &subscriber[T]{fn: fn}
	t.subs = append(t.subs, s)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i, cur := range t.subs {
			if cur == s {
				t.subs = append(t.subs[:i], t.subs[i+1:]...)
				return
			}
		}
	}
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

// Select returns all rows matching pred, in insertion order.
func (t *Table[T]) Select(pred func(T) bool) []T {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []T
	for _, c := range t.chunks {
		for _, r := range c {
			if pred(r) {
				out = append(out, r)
			}
		}
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
// table. Chunks only ever grow in place (the store is append-only), so a
// chunk index obtained here stays valid for ChunkAt.
func (t *Table[T]) NumChunks() int {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chunks)
}

// ChunkAt returns storage chunk i as a read-only slice in O(1) — the
// random-access companion to ScanChunks for chunk-windowed readers. The
// returned slice is capped at its current length; rows appended after
// the call extend the chunk but never rewrite the returned prefix.
func (t *Table[T]) ChunkAt(i int) []T {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.chunks) {
		panic(fmt.Sprintf("evstore: chunk %d out of range [0,%d)", i, len(t.chunks)))
	}
	c := t.chunks[i]
	return c[:len(c):len(c)]
}

// OrderedBy returns a copy of all rows sorted by less.
func (t *Table[T]) OrderedBy(less func(a, b T) bool) []T {
	out := t.Rows()
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Replace substitutes the table's entire contents. It exists for
// canonicalisation (sorting a trace into a deterministic order after
// concurrent recording); it is not a hot-path operation. Subscribers are
// not notified: a subscription observes the append-only insert stream,
// not rewrites, so canonicalise only after live consumers detach.
func (t *Table[T]) Replace(rows []T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chunks = nil
	t.length = 0
	t.invalidateHashesLocked()
	t.appendLocked(rows)
}

// GroupBy partitions rows by key.
func GroupBy[T any, K comparable](t *Table[T], key func(T) K) map[K][]T {
	t.notifyRead()
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[K][]T)
	for _, c := range t.chunks {
		for _, r := range c {
			k := key(r)
			out[k] = append(out[k], r)
		}
	}
	return out
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
