package evstore

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

type rec struct {
	ID   int
	Name string
	Dur  int64
}

func TestInsertSelectCount(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{1, "a", 10}, rec{2, "b", 20}, rec{3, "a", 30})
	if tb.Len() != 3 {
		t.Fatalf("len = %d", tb.Len())
	}
	if n := tb.Count(func(r rec) bool { return r.Dur > 15 }); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if n := tb.Count(nil); n != 3 {
		t.Fatalf("count(nil) = %d", n)
	}
	if got := tb.At(1); got.Name != "b" {
		t.Fatalf("At(1) = %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{1, "a", 1}, rec{2, "b", 2}, rec{3, "c", 3})
	var seen []int
	tb.Scan(func(i int, r rec) bool {
		seen = append(seen, r.ID)
		return r.ID < 2
	})
	if len(seen) != 2 {
		t.Fatalf("scan visited %v", seen)
	}
}

func TestRowsIsACopy(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{1, "a", 1})
	rows := tb.Rows()
	rows[0].Name = "mutated"
	if tb.At(0).Name != "a" {
		t.Fatal("Rows exposed internal storage")
	}
}

func TestConcurrentInsert(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tb.Insert(rec{ID: w*1000 + i})
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != 4000 {
		t.Fatalf("len = %d, want 4000", tb.Len())
	}
}

func newSchema() (*DB, *Table[rec], *Table[string]) {
	db := NewDB()
	recs := NewTable[rec]("recs", recCodec{})
	names := NewTable[string]("names", stringCodec{})
	_ = Register(db, recs)
	_ = Register(db, names)
	return db, recs, names
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, recs, names := newSchema()
	recs.Insert(rec{1, "a", 10}, rec{2, "b", 20})
	names.Insert("x", "y", "z")

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, recs2, names2 := newSchema()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if recs2.Len() != 2 || recs2.At(1).Name != "b" {
		t.Fatalf("recs after load = %v", recs2.Rows())
	}
	if names2.Len() != 3 || names2.At(0) != "x" {
		t.Fatalf("names after load = %v", names2.Rows())
	}
}

func TestSaveLoadFile(t *testing.T) {
	db, recs, _ := newSchema()
	recs.Insert(rec{42, "file", 7})
	path := filepath.Join(t.TempDir(), "trace.evdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, recs2, _ := newSchema()
	if err := db2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if recs2.At(0).ID != 42 {
		t.Fatalf("loaded %v", recs2.Rows())
	}
}

func TestLoadSchemaMismatch(t *testing.T) {
	db, recs, _ := newSchema()
	recs.Insert(rec{1, "a", 1})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}

	other := NewDB()
	_ = Register(other, NewTable[rec]("different", recCodec{}))
	err := other.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "tables") {
		t.Fatalf("schema mismatch: %v", err)
	}

	// Same count, different name.
	other2 := NewDB()
	_ = Register(other2, NewTable[rec]("recs", recCodec{}))
	_ = Register(other2, NewTable[string]("wrong", stringCodec{}))
	err = other2.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `"wrong"`) {
		t.Fatalf("name mismatch: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db, _, _ := newSchema()
	if err := db.Load(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	db := NewDB()
	if err := Register(db, NewTable[rec]("t", recCodec{})); err != nil {
		t.Fatal(err)
	}
	if err := Register(db, NewTable[rec]("t", recCodec{})); err == nil {
		t.Fatal("duplicate table registered")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestReset(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{1, "a", 1})
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("reset did not clear rows")
	}
}

// TestChunksSnapshotIsCapped checks that a chunk snapshot spans chunk
// boundaries in row order and that rows appended after it, into the
// same storage chunk or a new one, never show through its slices.
func TestChunksSnapshotIsCapped(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.BatchInsert(make([]rec, chunkSize-2))
	tb.BatchInsert([]rec{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}})
	chunks := tb.Chunks()
	if len(chunks) != 2 || len(chunks[0]) != chunkSize || len(chunks[1]) != 2 {
		t.Fatalf("chunk lengths %d, want [%d 2]", len(chunks), chunkSize)
	}
	if chunks[0][chunkSize-1].ID != 2 || chunks[1][1].ID != 4 {
		t.Fatalf("chunks out of row order: %v, %v", chunks[0][chunkSize-2:], chunks[1])
	}
	tb.BatchInsert([]rec{{ID: 5}, {ID: 6}})
	if len(chunks[1]) != 2 || cap(chunks[1]) != 2 {
		t.Fatalf("snapshot chunk has len %d cap %d after a later append, want 2 and 2", len(chunks[1]), cap(chunks[1]))
	}
	_ = append(chunks[1], rec{ID: 99})
	if got := tb.At(chunkSize + 2).ID; got != 5 {
		t.Fatalf("appending to the snapshot overwrote a table row: got ID %d, want 5", got)
	}
}

func TestSaveLoadProperty(t *testing.T) {
	// Property: any set of rows survives a serialisation round trip.
	f := func(ids []int, names []string) bool {
		db, recs, ns := newSchema()
		for _, id := range ids {
			recs.Insert(rec{ID: id})
		}
		ns.Insert(names...)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return false
		}
		db2, recs2, ns2 := newSchema()
		if err := db2.Load(&buf); err != nil {
			return false
		}
		if recs2.Len() != len(ids) || ns2.Len() != len(names) {
			return false
		}
		for i, id := range ids {
			if recs2.At(i).ID != id {
				return false
			}
		}
		for i, n := range names {
			if ns2.At(i) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
