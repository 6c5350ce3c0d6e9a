package evstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// saveBytes serialises a testDB.
func saveBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads every remaining chunk off a cursor.
func drain[T any](cur *StreamCursor[T]) ([]T, error) {
	var out []T
	for {
		rows, err := cur.Next()
		if err != nil {
			return out, err
		}
		if rows == nil {
			return out, nil
		}
		out = append(out, rows...)
	}
}

// drainTable opens a cursor and drains it, failing the test on any error.
func drainTable[T any](t *testing.T, sr *StreamReader, name string, codec RowCodec[T]) []T {
	t.Helper()
	cur, err := NewStreamCursor[T](sr, name, codec)
	if err != nil {
		t.Fatalf("cursor %q: %v", name, err)
	}
	rows, err := drain(cur)
	if err != nil {
		t.Fatalf("drain %q: %v", name, err)
	}
	return rows
}

func rowsEqual[T any](a, b []T) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestStreamMatchesLoad proves the chunk-at-a-time read path delivers
// exactly the rows a full Load would, across table sizes (including the
// multi-chunk regime) — and that the index's chunk hashes are identical
// to the resident Table.ChunkHashes. The compress=false label keeps the
// case names stable from when chunks could be compressed.
func TestStreamMatchesLoad(t *testing.T) {
	for _, n := range []int{0, 1, 100, chunkSize + 1, 3*chunkSize + 17} {
		t.Run(fmt.Sprintf("n=%d/compress=false", n), func(t *testing.T) {
			src, recs, extra := testDB(t)
			fillDB(recs, extra, n)
			b := saveBytes(t, src)
			sr, err := NewStreamReader(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatal(err)
			}
			if got := drainTable[rec](t, sr, "recs", recCodec{}); !rowsEqual(got, recs.Rows()) {
				t.Errorf("streamed recs differ from resident rows")
			}
			if got := drainTable[aux](t, sr, "extra", auxCodec{}); !rowsEqual(got, extra.Rows()) {
				t.Errorf("streamed extra differs from resident rows")
			}
			if got, _ := sr.Rows("recs"); got != recs.Len() {
				t.Errorf("Rows(recs) = %d, want %d", got, recs.Len())
			}
			if got := sr.AppendChunkHashes(nil, "recs"); !rowsEqual(got, recs.ChunkHashes()) {
				t.Errorf("stream chunk hashes %x != table %x", got, recs.ChunkHashes())
			}
		})
	}
}

// TestStreamTruncationErrors feeds every truncation of a saved file to
// the stream opener: each must fail to open (it loses its footer) —
// never panic, never open with missing rows.
func TestStreamTruncationErrors(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 300)
	full := saveBytes(t, src)
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := NewStreamReader(bytes.NewReader(full[:cut]), int64(cut)); err == nil {
			t.Fatalf("truncated at %d/%d opened without error", cut, len(full))
		}
	}
}

// TestStreamBitFlipNeverWrongRows is the corruption contract of the
// chunk-hash verification: flip any byte of the file and the stream
// path either errors (at open, cursor creation, or decode) or still
// delivers exactly the original rows — silent corruption never reaches
// a caller. (Bytes outside every integrity domain, like the data
// section's table headers that an indexed open never reads, fall in the
// second arm.)
func TestStreamBitFlipNeverWrongRows(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 300)
	full := saveBytes(t, src)
	for pos := 0; pos < len(full); pos += 11 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x41
		sr, err := NewStreamReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue
		}
		for _, open := range []func() (any, error){
			func() (any, error) {
				cur, err := NewStreamCursor[rec](sr, "recs", recCodec{})
				if err != nil {
					return nil, err
				}
				return drain(cur)
			},
			func() (any, error) {
				cur, err := NewStreamCursor[aux](sr, "extra", auxCodec{})
				if err != nil {
					return nil, err
				}
				return drain(cur)
			},
		} {
			got, err := open()
			if err != nil {
				continue
			}
			switch rows := got.(type) {
			case []rec:
				if !rowsEqual(rows, recs.Rows()) {
					t.Fatalf("flip at %d: recs decoded without error but differ", pos)
				}
			case []aux:
				if !rowsEqual(rows, extra.Rows()) {
					t.Fatalf("flip at %d: extra decoded without error but differ", pos)
				}
			}
		}
	}
}

// TestStreamMidStreamCorruption damages one interior chunk of a
// multi-chunk table: chunks before it stream fine, the damaged chunk
// reports ErrCorrupt (the hash check), and seeking past it recovers the
// clean tail — the random-access property the chunk index exists for.
func TestStreamMidStreamCorruption(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 3*chunkSize+17)
	full := saveBytes(t, src)
	clean, err := NewStreamReader(bytes.NewReader(full), int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	chunks := clean.Chunks("recs")
	if len(chunks) != 4 {
		t.Fatalf("expected 4 chunks, got %d", len(chunks))
	}

	mut := append([]byte(nil), full...)
	mut[chunks[2].Offset+20] ^= 0x41 // inside chunk 2's payload
	sr, err := NewStreamReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatalf("index is intact, open must succeed: %v", err)
	}
	cur, err := NewStreamCursor[rec](sr, "recs", recCodec{})
	if err != nil {
		t.Fatal(err)
	}
	want := recs.Rows()
	for k := 0; k < 2; k++ {
		rows, err := cur.Next()
		if err != nil {
			t.Fatalf("clean chunk %d: %v", k, err)
		}
		if !rowsEqual(rows, want[k*chunkSize:(k+1)*chunkSize]) {
			t.Fatalf("clean chunk %d decoded wrong rows", k)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged chunk error = %v, want ErrCorrupt", err)
	}
	rows, err := cur.Next()
	if err != nil {
		t.Fatalf("clean tail chunk after the damaged one: %v", err)
	}
	if !rowsEqual(rows, want[3*chunkSize:]) {
		t.Fatalf("tail chunk decoded wrong rows")
	}
}

// TestStreamSeek pins the cursor's random access: in-range seeks
// reposition, the end position yields a clean EOF, and out-of-range
// seeks error.
func TestStreamSeek(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 2*chunkSize+5)
	b := saveBytes(t, src)
	sr, err := NewStreamReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := NewStreamCursor[rec](sr, "recs", recCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Seek(1); err != nil {
		t.Fatal(err)
	}
	rows, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := recs.Rows()[chunkSize : 2*chunkSize]; !rowsEqual(rows, want) {
		t.Fatalf("seek(1) did not yield chunk 1")
	}
	if err := cur.Seek(cur.NumChunks()); err != nil {
		t.Fatal(err)
	}
	if rows, err := cur.Next(); rows != nil || err != nil {
		t.Fatalf("next at end = (%v, %v), want clean EOF", rows, err)
	}
	if err := cur.Seek(-1); err == nil {
		t.Fatal("seek(-1) must error")
	}
	if err := cur.Seek(cur.NumChunks() + 1); err == nil {
		t.Fatal("seek past end must error")
	}
}

// TestStreamCursorBuffers pins the cursor's buffer contract: Next
// decodes every chunk into the same row storage, so its rows live until
// the next read; a Clone reads into buffers of its own; and a declared
// length that runs past the file is ErrCorrupt before it is allocated.
func TestStreamCursorBuffers(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 3*chunkSize)
	b := saveBytes(t, src)
	sr, err := NewStreamReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := NewStreamCursor[rec](sr, "recs", recCodec{})
	if err != nil {
		t.Fatal(err)
	}
	want := recs.Rows()
	first, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	clone := cur.Clone()
	fromClone, err := clone.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Error("Next decoded the second chunk into new storage")
	}
	if &fromClone[0] == &second[0] {
		t.Error("a clone shares the original cursor's row storage")
	}
	for name, rows := range map[string][]rec{"cursor": second, "clone": fromClone} {
		if !rowsEqual(rows, want[chunkSize:2*chunkSize]) {
			t.Errorf("%s: chunk 1 decoded wrong rows", name)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = sr.readAt(0, maxDecodeChunkLen, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("read of %d bytes from a %d-byte file: err = %v, want ErrCorrupt", maxDecodeChunkLen, len(b), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refused read allocated %.1f MiB", float64(grew)/(1<<20))
	}
}
