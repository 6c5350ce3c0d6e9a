package evstore

import (
	"bytes"
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

// TestChunkHashesCacheInvalidation proves the full-chunk cache does not
// survive the rewrite paths.
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
