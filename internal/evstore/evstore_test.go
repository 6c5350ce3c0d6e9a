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
	as := tb.Select(func(r rec) bool { return r.Name == "a" })
	if len(as) != 2 || as[0].ID != 1 || as[1].ID != 3 {
		t.Fatalf("select a = %v", as)
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

func TestOrderedByDoesNotMutate(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{3, "c", 3}, rec{1, "a", 1}, rec{2, "b", 2})
	sorted := tb.OrderedBy(func(a, b rec) bool { return a.ID < b.ID })
	if sorted[0].ID != 1 || sorted[2].ID != 3 {
		t.Fatalf("sorted = %v", sorted)
	}
	if tb.At(0).ID != 3 {
		t.Fatal("OrderedBy mutated insertion order")
	}
}

func TestGroupBy(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{1, "a", 1}, rec{2, "b", 2}, rec{3, "a", 3})
	groups := GroupBy(tb, func(r rec) string { return r.Name })
	if len(groups) != 2 || len(groups["a"]) != 2 || len(groups["b"]) != 1 {
		t.Fatalf("groups = %v", groups)
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

func TestSubscribeObservesInserts(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	tb.Insert(rec{ID: 0}, rec{ID: 1})

	var got []int
	cancel := tb.Subscribe(func(rows []rec) {
		for _, r := range rows {
			got = append(got, r.ID)
		}
	}, true)

	tb.Insert(rec{ID: 2})
	tb.BatchInsert([]rec{{ID: 3}, {ID: 4}})
	for i, id := range got {
		if id != i {
			t.Fatalf("subscriber saw %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("subscriber saw %d rows, want 5 (replay + live)", len(got))
	}

	cancel()
	cancel() // idempotent
	tb.Insert(rec{ID: 99})
	if len(got) != 5 {
		t.Fatal("subscriber notified after cancel")
	}
}

func TestSubscribeBatchSpansChunks(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	pad := make([]rec, chunkSize-2)
	tb.BatchInsert(pad)

	var got []rec
	tb.Subscribe(func(rows []rec) { got = append(got, rows...) }, false)

	batch := []rec{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	tb.BatchInsert(batch)
	if len(got) != len(batch) {
		t.Fatalf("subscriber saw %d rows, want %d", len(got), len(batch))
	}
	for i, r := range got {
		if r.ID != batch[i].ID {
			t.Fatalf("subscriber saw %v", got)
		}
	}
	// The delivered slices alias committed chunk storage: later appends
	// must not change what the subscriber retained.
	retained := got[0]
	tb.BatchInsert([]rec{{ID: 5}, {ID: 6}})
	if got[0] != retained {
		t.Fatal("retained subscription rows mutated by later inserts")
	}
}

func TestSubscribeConcurrentExactlyOnce(t *testing.T) {
	tb := NewTable[rec]("recs", recCodec{})
	var mu sync.Mutex
	seen := make(map[int]int)
	record := func(rows []rec) {
		mu.Lock()
		for _, r := range rows {
			seen[r.ID]++
		}
		mu.Unlock()
	}

	const writers, per = 8, 300
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				tb.Insert(rec{ID: w*per + i})
			}
		}(w)
	}
	close(start)
	// Subscribe mid-stream with replay: every row must be seen exactly
	// once, whether it was replayed or delivered live.
	tb.Subscribe(record, true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != writers*per {
		t.Fatalf("saw %d distinct rows, want %d", len(seen), writers*per)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("row %d delivered %d times", id, n)
		}
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
