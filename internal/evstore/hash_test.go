package evstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

type hashRow struct {
	ID   int64
	Name string
}

func hashRows(n, base int) []hashRow {
	out := make([]hashRow, n)
	for i := range out {
		out[i] = hashRow{ID: int64(base + i), Name: "row"}
	}
	return out
}

// TestChunkHashesContentAddressed proves hashes depend only on contents:
// two tables with equal rows hash equally regardless of insert batching,
// and differing rows hash differently.
func TestChunkHashesContentAddressed(t *testing.T) {
	a := NewTable[hashRow]("a", hashRowCodec{})
	b := NewTable[hashRow]("b", hashRowCodec{})
	rows := hashRows(3*chunkSize+17, 0)
	a.BatchInsert(rows)
	for _, r := range rows {
		b.Insert(r)
	}
	ha, hb := a.ChunkHashes(), b.ChunkHashes()
	if len(ha) != 4 || len(hb) != 4 {
		t.Fatalf("chunk counts = %d, %d, want 4", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("chunk %d: %x != %x despite equal contents", i, ha[i], hb[i])
		}
	}

	c := NewTable[hashRow]("c", hashRowCodec{})
	mutated := append([]hashRow(nil), rows...)
	mutated[chunkSize+5].ID = -1
	c.BatchInsert(mutated)
	hc := c.ChunkHashes()
	if hc[1] == ha[1] {
		t.Error("changed row did not change its chunk's hash")
	}
	for _, i := range []int{0, 2, 3} {
		if hc[i] != ha[i] {
			t.Errorf("chunk %d hash changed although its rows did not", i)
		}
	}
}

// TestChunkHashesAppendOnlyTail proves appends only ever change the
// trailing hash: full-chunk prefixes are immutable, which is what lets
// the serve cache invalidate nothing but the tail window.
func TestChunkHashesAppendOnlyTail(t *testing.T) {
	tab := NewTable[hashRow]("t", hashRowCodec{})
	tab.BatchInsert(hashRows(2*chunkSize+10, 0))
	before := tab.ChunkHashes()

	tab.BatchInsert(hashRows(5, 1_000_000))
	after := tab.ChunkHashes()
	if len(after) != len(before) {
		t.Fatalf("chunk count changed: %d -> %d", len(before), len(after))
	}
	for i := 0; i < len(before)-1; i++ {
		if before[i] != after[i] {
			t.Errorf("full chunk %d hash changed on append", i)
		}
	}
	if before[len(before)-1] == after[len(after)-1] {
		t.Error("tail chunk hash unchanged after append")
	}

	// Crossing a chunk boundary freezes the old tail and adds a chunk.
	tab.BatchInsert(hashRows(2*chunkSize, 2_000_000))
	grown := tab.ChunkHashes()
	if len(grown) != len(after)+2 {
		t.Fatalf("chunk count = %d, want %d", len(grown), len(after)+2)
	}
	for i := 0; i < len(after)-1; i++ {
		if grown[i] != after[i] {
			t.Errorf("full chunk %d hash changed on append", i)
		}
	}
}

// TestChunkHashesCacheInvalidation proves neither the full-chunk cache
// nor the tail memo survives the rewrite paths. Each rewrite leaves a
// partial tail of the same length with different rows — the one case a
// tail memo keyed on length alone would answer stale — and must change
// the tail hash to exactly what a fresh table of those rows hashes to.
func TestChunkHashesCacheInvalidation(t *testing.T) {
	tab := NewTable[hashRow]("t", hashRowCodec{})
	tab.BatchInsert(hashRows(chunkSize, 0))
	h1 := tab.ChunkHashes()

	tab.Replace(hashRows(chunkSize, 500))
	h2 := tab.ChunkHashes()
	if h1[0] == h2[0] {
		t.Error("Replace kept a stale chunk hash")
	}

	tab.Reset()
	if got := tab.ChunkHashes(); len(got) != 0 {
		t.Errorf("Reset table has %d chunk hashes", len(got))
	}

	const tailRows = 100 // one partial chunk: the memo answers it
	saved := func(rows []hashRow) *bytes.Buffer {
		src := NewTable[hashRow]("t", hashRowCodec{})
		db := NewDB()
		if err := Register(db, src); err != nil {
			t.Fatal(err)
		}
		src.BatchInsert(rows)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	db := NewDB()
	if err := Register(db, tab); err != nil {
		t.Fatal(err)
	}
	tab.BatchInsert(hashRows(tailRows, 0))
	prev := tab.ChunkHashes()
	rewrites := []struct {
		name    string
		base    int
		rewrite func(rows []hashRow)
	}{
		{"Replace", 1_000, tab.Replace},
		{"Reset+insert", 2_000, func(rows []hashRow) { tab.Reset(); tab.BatchInsert(rows) }},
		{"Load", 3_000, func(rows []hashRow) {
			if err := db.Load(saved(rows)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, rw := range rewrites {
		rows := hashRows(tailRows, rw.base)
		rw.rewrite(rows)
		got := tab.ChunkHashes()
		fresh := NewTable[hashRow]("fresh", hashRowCodec{})
		fresh.BatchInsert(rows)
		want := fresh.ChunkHashes()
		if len(got) != 1 || len(want) != 1 {
			t.Fatalf("%s: %d chunk hashes, fresh table %d, want 1", rw.name, len(got), len(want))
		}
		if got[0] == prev[0] {
			t.Errorf("%s: tail hash %x unchanged although the tail's rows changed", rw.name, got[0])
		}
		if got[0] != want[0] {
			t.Errorf("%s: tail hash %x, fresh table of the same rows %x", rw.name, got[0], want[0])
		}
		prev = got
	}
}

// countingCodec counts the chunks it encodes: the hash layer encodes a
// chunk exactly when it (re)hashes it.
type countingCodec struct {
	hashRowCodec
	encoded *atomic.Int64
}

func (c countingCodec) Encode(e *Encoder, rows []hashRow) {
	c.encoded.Add(1)
	c.hashRowCodec.Encode(e, rows)
}

// TestChunkHashesTailMemo proves the partial tail's hash is memoised: a
// repeat ChunkHashes on an unchanged table encodes no chunk, and an
// append re-encodes only the tail it grew, once.
func TestChunkHashesTailMemo(t *testing.T) {
	var encoded atomic.Int64
	tab := NewTable[hashRow]("t", countingCodec{encoded: &encoded})
	calls := func(step string, want int64) []uint64 {
		t.Helper()
		encoded.Store(0)
		h := tab.ChunkHashes()
		if got := encoded.Load(); got != want {
			t.Errorf("%s: ChunkHashes encoded %d chunks, want %d", step, got, want)
		}
		fresh := NewTable[hashRow]("fresh", hashRowCodec{})
		fresh.BatchInsert(tab.Rows())
		if !rowsEqual(h, fresh.ChunkHashes()) {
			t.Errorf("%s: hashes %x differ from a fresh table's %x", step, h, fresh.ChunkHashes())
		}
		return h
	}

	tab.BatchInsert(hashRows(2*chunkSize+10, 0))
	calls("cold", 3)
	calls("repeat", 0)
	calls("second repeat", 0)

	tab.BatchInsert(hashRows(5, 1_000_000))
	calls("append within the tail", 1)
	calls("repeat after append", 0)

	// Filling the tail freezes it into the full-chunk cache; the new
	// partial tail is the only other chunk encoded.
	tab.BatchInsert(hashRows(chunkSize, 2_000_000))
	calls("append across a chunk boundary", 2)
	calls("repeat after the boundary", 0)

	// A table of whole chunks has no tail to memoise.
	tab.BatchInsert(hashRows(chunkSize-tab.Len()%chunkSize, 3_000_000))
	if tab.Len()%chunkSize != 0 {
		t.Fatalf("table of %d rows is not whole chunks", tab.Len())
	}
	calls("append to whole chunks", 1)
	calls("repeat on whole chunks", 0)
}

// TestChunkHashesConcurrentBatchInsert hashes while writers append:
// every result's full chunks agree with the caller's previous result,
// and once the writers stop the hashes equal a fresh table's of the
// same rows — a memo adopted from a stale snapshot must never answer
// for a longer table. Run under -race it also checks the memo's
// locking.
func TestChunkHashesConcurrentBatchInsert(t *testing.T) {
	tab := NewTable[hashRow]("t", hashRowCodec{})
	const writers, batches, batch = 2, 200, 37
	done := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev []uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				cur := tab.ChunkHashes()
				for i := 0; i+1 < len(prev); i++ {
					if cur[i] != prev[i] {
						errs <- fmt.Sprintf("full chunk %d hash moved from %x to %x", i, prev[i], cur[i])
						return
					}
				}
				prev = cur
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				tab.BatchInsert(hashRows(batch, (w*batches+i)*batch))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if got := tab.Len(); got != writers*batches*batch {
		t.Fatalf("table holds %d rows, want %d", got, writers*batches*batch)
	}
	fresh := NewTable[hashRow]("fresh", hashRowCodec{})
	fresh.BatchInsert(tab.Rows())
	if got, want := tab.ChunkHashes(), fresh.ChunkHashes(); !rowsEqual(got, want) {
		t.Fatalf("hashes after concurrent inserts %x, fresh table of the same rows %x", got, want)
	}
}

// TestChunkHashesSurviveSaveLoad proves a save/load round-trip preserves
// content hashes — a loaded trace must hit the same cache entries the
// original populated.
func TestChunkHashesSurviveSaveLoad(t *testing.T) {
	mk := func() (*DB, *Table[hashRow]) {
		tab := NewTable[hashRow]("t", hashRowCodec{})
		db := NewDB()
		if err := Register(db, tab); err != nil {
			t.Fatal(err)
		}
		return db, tab
	}
	db1, tab1 := mk()
	tab1.BatchInsert(hashRows(2*chunkSize+3, 0))
	want := tab1.ChunkHashes()

	var buf bytes.Buffer
	if err := db1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, tab2 := mk()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := tab2.ChunkHashes()
	if len(got) != len(want) {
		t.Fatalf("chunk count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chunk %d hash changed across save/load", i)
		}
	}
}
