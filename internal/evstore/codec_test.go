package evstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// recCodec is a columnar codec for the test row type, covering every
// Encoder/Decoder primitive (varint delta, uvarint, string interning).
type recCodec struct{}

func (recCodec) Encode(e *Encoder, rows []rec) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.String(rows[i].Name)
	}
	for i := range rows {
		e.Varint(rows[i].Dur)
	}
}

func (recCodec) Decode(d *Decoder, rows []rec) {
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = int(prev)
	}
	for i := range rows {
		rows[i].Name = d.String()
	}
	for i := range rows {
		rows[i].Dur = d.Varint()
	}
}

// aux is a second row type with its own codec, so every DB in these
// tests holds two differently shaped tables.
type aux struct {
	Tag string
	N   float64
}

type auxCodec struct{}

func (auxCodec) Encode(e *Encoder, rows []aux) {
	for i := range rows {
		e.String(rows[i].Tag)
		e.Float64(rows[i].N)
	}
}

func (auxCodec) Decode(d *Decoder, rows []aux) {
	for i := range rows {
		rows[i].Tag = d.String()
		rows[i].N = d.Float64()
	}
}

type stringCodec struct{}

func (stringCodec) Encode(e *Encoder, rows []string) {
	for _, s := range rows {
		e.String(s)
	}
}

func (stringCodec) Decode(d *Decoder, rows []string) {
	for i := range rows {
		rows[i] = d.String()
	}
}

type hashRowCodec struct{}

func (hashRowCodec) Encode(e *Encoder, rows []hashRow) {
	for i := range rows {
		e.Varint(rows[i].ID)
		e.String(rows[i].Name)
	}
}

func (hashRowCodec) Decode(d *Decoder, rows []hashRow) {
	for i := range rows {
		rows[i].ID = d.Varint()
		rows[i].Name = d.String()
	}
}

// testDB builds a two-table schema: "recs" then "extra".
func testDB(t testing.TB) (*DB, *Table[rec], *Table[aux]) {
	t.Helper()
	db := NewDB()
	recs := NewTable[rec]("recs", recCodec{})
	extra := NewTable[aux]("extra", auxCodec{})
	if err := Register(db, recs); err != nil {
		t.Fatal(err)
	}
	if err := Register(db, extra); err != nil {
		t.Fatal(err)
	}
	return db, recs, extra
}

func fillDB(recs *Table[rec], extra *Table[aux], n int) {
	rows := make([]rec, n)
	for i := range rows {
		rows[i] = rec{ID: i * 3, Name: fmt.Sprintf("name-%d", i%7), Dur: int64(i) - 5}
	}
	recs.BatchInsert(rows)
	for i := 0; i < n/100+1; i++ {
		extra.Insert(aux{Tag: fmt.Sprintf("t%d", i), N: float64(i) / 3})
	}
}

func dbEqual(t *testing.T, a, b *DB, ar, br *Table[rec], ax, bx *Table[aux]) {
	t.Helper()
	if !reflect.DeepEqual(ar.Rows(), br.Rows()) {
		t.Fatalf("recs differ: %v vs %v", ar.Rows(), br.Rows())
	}
	if !reflect.DeepEqual(ax.Rows(), bx.Rows()) {
		t.Fatalf("extra differs: %v vs %v", ax.Rows(), bx.Rows())
	}
}

// TestBinaryRoundTrip saves and loads across table sizes, including the
// multi-chunk regime (> chunkSize rows) that drives the parallel
// encode/decode paths. The compress=false label keeps the case names
// stable from when chunks could be compressed.
func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, chunkSize, chunkSize + 1, 3*chunkSize + 17} {
		t.Run(fmt.Sprintf("n=%d/compress=false", n), func(t *testing.T) {
			src, recs, extra := testDB(t)
			fillDB(recs, extra, n)
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			dst, drecs, dextra := testDB(t)
			if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			dbEqual(t, src, dst, recs, drecs, extra, dextra)
		})
	}
}

// TestRegisterRejectsTableWithoutCodec: every registered table must be
// able to serialise its chunks.
func TestRegisterRejectsTableWithoutCodec(t *testing.T) {
	if err := Register(NewDB(), NewTable[rec]("recs", nil)); err == nil {
		t.Fatal("table without a codec registered")
	}
}

// TestLoadOverwritesExisting checks Load replaces prior contents rather
// than appending.
func TestLoadOverwritesExisting(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 50)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, drecs, dextra := testDB(t)
	fillDB(drecs, dextra, 200)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	dbEqual(t, src, dst, recs, drecs, extra, dextra)
}

// TestCorruptInputsError feeds truncations and bit-flips of a valid
// binary file into Load: every one must produce an error or load
// cleanly — never panic. Truncations must always error.
func TestCorruptInputsError(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 300)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut += 7 {
		dst, _, _ := testDB(t)
		if err := dst.Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded without error", cut, len(full))
		}
	}
	for pos := 0; pos < len(full); pos += 11 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x41
		dst, _, _ := testDB(t)
		_ = dst.Load(bytes.NewReader(mut)) // must not panic; error optional
	}
}

// TestCorruptErrorsAreErrCorrupt spot-checks that structural damage
// reports ErrCorrupt.
func TestCorruptErrorsAreErrCorrupt(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 10)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mut := buf.Bytes()
	mut = mut[:len(mut)-3] // drop the tail of the last chunk
	dst, _, _ := testDB(t)
	err := dst.Load(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

// retiredBodies derives, from a valid save of testDB, one file per
// layout earlier versions of the store wrote: a whole-file gob stream,
// the index-less version 2, and version 3 files whose first table is a
// gob chunk or whose first chunk is flate-flagged. The "v4" entries
// repeat the last two with the current version byte, so the codec and
// flags checks themselves refuse them.
func retiredBodies(t *testing.T, valid []byte, recs []rec, extra []aux) map[string][]byte {
	t.Helper()
	var gobBody bytes.Buffer
	enc := gob.NewEncoder(&gobBody)
	for _, v := range []any{
		struct {
			Magic   string
			Version int
			Tables  []string
		}{"sgxperf-evstore", 1, []string{"recs", "extra"}},
		recs, extra,
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}

	sr, err := NewStreamReader(bytes.NewReader(valid), int64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	indexOff := int(binary.LittleEndian.Uint64(valid[len(valid)-footerSize:]))
	// The first table's codec byte follows #tables and its name, in the
	// data section and in the index alike.
	codecAt := 1 + 1 + len("recs")
	first := sr.Chunks("recs")[0]
	flagsAt := int(first.Offset) + len(binary.AppendUvarint(nil, uint64(first.Rows)))

	patch := func(version byte, at ...int) []byte {
		b := append([]byte(nil), valid...)
		b[len(magic)-1] = version
		for _, i := range at {
			b[i] ^= 1
		}
		return b
	}
	v2 := append([]byte(nil), valid[:indexOff]...)
	v2[len(magic)-1] = 2
	return map[string][]byte{
		"whole-file gob": gobBody.Bytes(),
		"v2":             v2,
		"v3 gob chunk":   patch(3, len(magic)+codecAt, indexOff+codecAt),
		"v3 flate chunk": patch(3, flagsAt),
		"v4 gob chunk":   patch(4, len(magic)+codecAt, indexOff+codecAt),
		"v4 flate chunk": patch(4, flagsAt),
	}
}

// TestRetiredFormatsAreErrCorrupt: Load and the stream reader refuse
// every layout the store no longer writes with ErrCorrupt. An old
// file's version byte names it in the error. A flags byte sits only in
// the chunk header, which the stream reader reads when a cursor reaches
// that chunk.
func TestRetiredFormatsAreErrCorrupt(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 100)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bodies := retiredBodies(t, buf.Bytes(), recs.Rows(), extra.Rows())
	for name, body := range bodies {
		dst, _, _ := testDB(t)
		if err := dst.Load(bytes.NewReader(body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load error %v, want ErrCorrupt", name, err)
		}
		sr, err := NewStreamReader(bytes.NewReader(body), int64(len(body)))
		if name == "v4 flate chunk" {
			if err != nil {
				t.Fatalf("%s: the index is intact, open must succeed: %v", name, err)
			}
			cur, err := NewStreamCursor[rec](sr, "recs", recCodec{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = cur.Next()
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: cursor error %v, want ErrCorrupt", name, err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: NewStreamReader error %v, want ErrCorrupt", name, err)
		}
	}

	dst, _, _ := testDB(t)
	err := dst.Load(bytes.NewReader(bodies["v3 gob chunk"]))
	if want := "trace format version 3 is not supported"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("version-3 file: error %v, want it to contain %q", err, want)
	}
}

// TestDeclaredChunkSizesAreNotAllocated: a chunk header's declared
// sizes do not drive allocation. A 28-byte body whose one chunk claims a
// 256 MiB payload, and a 3 MiB body whose chunk claims a million rows —
// more than the 1,024 Save ever writes to one chunk — both fail as
// corrupt while the loader allocates less than 8 MiB.
func TestDeclaredChunkSizesAreNotAllocated(t *testing.T) {
	body := func(rows, plen uint64, payload []byte) []byte {
		b := append([]byte(magic), 2, 4)
		b = append(b, "recs"...)
		b = append(b, codecColumnar)
		b = binary.AppendUvarint(b, rows)
		b = append(b, 1) // #chunks
		b = binary.AppendUvarint(b, rows)
		b = append(b, 0) // flags
		b = binary.AppendUvarint(b, plen)
		return append(b, payload...)
	}
	const manyRows = 1 << 20
	for name, b := range map[string][]byte{
		"256 MiB payload": body(1, maxDecodeChunkLen, nil),
		// An empty dictionary, then three columns of zero varints.
		"million rows": body(manyRows, 3*manyRows, make([]byte, 3*manyRows)),
	} {
		if name == "256 MiB payload" && len(b) != 28 {
			t.Fatalf("%s: body is %d bytes, want 28", name, len(b))
		}
		dst, _, _ := testDB(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := dst.Load(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load error %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
			t.Errorf("%s: Load allocated %.1f MiB for a %d-byte body", name, float64(grew)/(1<<20), len(b))
		}
	}
}

// FuzzCodecRoundTrip drives three properties at once: (1) a database
// built from fuzz-derived rows survives encode→decode bit-for-bit —
// through Load and through the streaming chunk cursors, which must
// agree; (2) Load over the raw fuzz bytes themselves returns an error or
// succeeds but never panics; and (3) the same holds for opening the raw
// bytes as a stream and draining its cursors.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello world, this is seed data for rows"))
	f.Add([]byte(magic + "\x02\x04recs"))
	// A valid save as a seed so mutations explore near-valid inputs.
	{
		db, recs, extra := testDB(f)
		fillDB(recs, extra, 40)
		var buf bytes.Buffer
		if err := db.Save(&buf); err == nil {
			f.Add(buf.Bytes())
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 2: arbitrary bytes never panic the loader.
		raw, _, _ := testDB(t)
		_ = raw.Load(bytes.NewReader(data))

		// Property 3: arbitrary bytes never panic the stream path either
		// — open, cursor creation and chunk decode all error cleanly.
		if sr, err := NewStreamReader(bytes.NewReader(data), int64(len(data))); err == nil {
			for _, name := range sr.TableNames() {
				if cur, err := NewStreamCursor[rec](sr, name, recCodec{}); err == nil {
					_, _ = drain(cur)
				}
			}
		}

		// Property 1: rows derived from the fuzz input round-trip exactly.
		src, recs, extra := testDB(t)
		var rows []rec
		for i := 0; i+4 <= len(data); i += 4 {
			rows = append(rows, rec{
				ID:   int(int8(data[i])) * 1000,
				Name: string(data[i+1 : i+3]),
				Dur:  int64(int8(data[i+3])),
			})
		}
		recs.BatchInsert(rows)
		if len(data) > 0 {
			extra.Insert(aux{Tag: string(data[:len(data)%5]), N: float64(len(data))})
		}
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		dst, drecs, dextra := testDB(t)
		if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("load: %v", err)
		}
		if !reflect.DeepEqual(recs.Rows(), drecs.Rows()) {
			t.Fatalf("recs did not round-trip")
		}
		if !reflect.DeepEqual(extra.Rows(), dextra.Rows()) {
			t.Fatalf("extra did not round-trip")
		}
		// Property 1, streaming side: the chunk cursors over the same
		// valid save must deliver exactly the resident rows.
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("stream open of a valid save: %v", err)
		}
		if got := drainTable[rec](t, sr, "recs", recCodec{}); !rowsEqual(got, recs.Rows()) {
			t.Fatalf("streamed recs diverge from resident rows")
		}
		if got := drainTable[aux](t, sr, "extra", auxCodec{}); !rowsEqual(got, extra.Rows()) {
			t.Fatalf("streamed extra diverges from resident rows")
		}
	})
}
