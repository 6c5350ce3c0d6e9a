package evstore

// The trace file format: one layout, columnar throughout. Each table is
// written as a sequence of independent row chunks, followed by the
// chunk index and footer described in stream.go:
//
//	file   := magic "sgxperf-evc\x04" | uvarint(#tables) | table* |
//	          index | footer
//	table  := str(name) | byte(codec: 1 columnar) |
//	          uvarint(#rows) | uvarint(#chunks) | chunk*
//	chunk  := uvarint(#rows ≤ 1024) | byte(flags: 0) |
//	          uvarint(len(payload)) | payload
//
// A chunk payload is self-contained: a string dictionary (call names
// intern to small indexes) followed by column-major varint data, with
// delta encoding for the monotone columns (event IDs, timestamps)
// supplied by the per-type RowCodec implementations in
// internal/perf/events. Self-containment is what buys parallelism: every
// chunk encodes and decodes independently on the shared worker pool, and
// the loader streams chunks into the table a window at a time instead of
// materialising whole tables.
//
// The codec and flags bytes admit one value each; they stay in the
// layout because the chunk hash covers the codec byte. A reader refuses
// any other value, and any file whose version byte is not 4 — earlier
// versions carried gob-encoded tables, an index-less layout or
// flate-compressed chunks — with ErrCorrupt.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"sgxperf/internal/pool"
)

// magic opens every trace file; its last byte is the format version.
const magic = "sgxperf-evc\x04"

const (
	codecColumnar = 1

	// Decode-side sanity caps: corrupted counts must produce errors, not
	// multi-gigabyte allocations.
	maxDecodeTables   = 1 << 12
	maxDecodeName     = 1 << 12
	maxDecodeChunkLen = 1 << 28
	maxDecodeRows     = 1 << 24

	// maxPrealloc bounds what readN allocates before the bytes arrive:
	// far above a 1,024-row chunk, far below a declared 256 MiB.
	maxPrealloc = 1 << 20
)

// ErrCorrupt reports a structurally invalid binary trace. Test with
// errors.Is.
var ErrCorrupt = errors.New("corrupt trace data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("evstore: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// checkMagic validates a file's first len(magic) bytes, naming the
// version of a trace file this build cannot read.
func checkMagic(head []byte) error {
	n := len(magic) - 1
	if len(head) != len(magic) || string(head[:n]) != magic[:n] {
		return corruptf("not an sgx-perf trace file")
	}
	if head[n] != magic[n] {
		return corruptf("trace format version %d is not supported; this build reads version %d only", head[n], magic[n])
	}
	return nil
}

// A RowCodec encodes one chunk of rows into the columnar payload and
// back. Implementations live next to the row types (internal/perf/
// events); they choose the column order and the delta/interning scheme.
// Decode fills rows, a slice the caller owns: its length is the chunk's
// declared row count and every element is the zero value, so a caller
// can hand the same storage to chunk after chunk. Decode must tolerate
// arbitrary input by relying on the Decoder's sticky error — never
// panic.
type RowCodec[T any] interface {
	Encode(e *Encoder, rows []T)
	Decode(d *Decoder, rows []T)
}

// ---------------------------------------------------------------------
// Encoder / Decoder: the primitive layer RowCodecs are written against.

// Encoder accumulates one chunk's columnar payload: varints, zigzag
// varints, fixed floats and dictionary-interned strings. The dictionary
// is per chunk, so payloads stay self-contained and chunks can be
// encoded concurrently with no shared state.
type Encoder struct {
	col  []byte
	dict map[string]uint64
	ord  []string
}

// Uvarint appends an unsigned varint.
//
//sgxperf:hotpath
func (e *Encoder) Uvarint(v uint64) { e.col = binary.AppendUvarint(e.col, v) }

// Varint appends a zigzag-encoded signed varint — the delta encoding
// primitive for monotone columns.
//
//sgxperf:hotpath
func (e *Encoder) Varint(v int64) { e.col = binary.AppendVarint(e.col, v) }

// Float64 appends a fixed 8-byte little-endian float.
//
//sgxperf:hotpath
func (e *Encoder) Float64(v float64) {
	e.col = binary.LittleEndian.AppendUint64(e.col, math.Float64bits(v))
}

// String appends the dictionary index of s, interning it on first use.
//
//sgxperf:hotpath
func (e *Encoder) String(s string) {
	if e.dict == nil {
		e.dict = make(map[string]uint64)
	}
	idx, ok := e.dict[s]
	if !ok {
		idx = uint64(len(e.ord))
		e.dict[s] = idx
		e.ord = append(e.ord, s)
	}
	e.Uvarint(idx)
}

// finish assembles the payload: dictionary block then column data.
func (e *Encoder) finish() []byte {
	head := binary.AppendUvarint(nil, uint64(len(e.ord)))
	for _, s := range e.ord {
		head = binary.AppendUvarint(head, uint64(len(s)))
		head = append(head, s...)
	}
	return append(head, e.col...)
}

// Decoder reads one chunk payload written by an Encoder. Every method
// returns a zero value once an error has been recorded (sticky error),
// so RowCodec.Decode loops need no per-read checks; the caller inspects
// Err once per chunk.
type Decoder struct {
	data []byte
	pos  int
	dict []string
	err  error
}

// reset points the decoder at a new payload and reads its dictionary,
// reusing the previous chunk's dictionary storage. The dictionary
// strings are copies, so rows decoded from the payload do not keep it
// alive.
func (d *Decoder) reset(payload []byte) error {
	*d = Decoder{data: payload, dict: d.dict[:0]}
	ndict := d.Uvarint()
	if d.err != nil {
		return d.err
	}
	if ndict > uint64(len(payload)) {
		return corruptf("dictionary of %d entries in a %d-byte payload", ndict, len(payload))
	}
	d.dict = slices.Grow(d.dict, int(ndict))
	for i := uint64(0); i < ndict; i++ {
		n := d.Uvarint()
		if d.err != nil {
			return d.err
		}
		if n > uint64(len(d.data)-d.pos) {
			return corruptf("dictionary string of %d bytes with %d remaining", n, len(d.data)-d.pos)
		}
		d.dict = append(d.dict, string(d.data[d.pos:d.pos+int(n)]))
		d.pos += int(n)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Uvarint reads an unsigned varint. Delta-encoded columns make
// single-byte varints the overwhelmingly common case, so that case is
// decoded inline before falling back to the generic loop.
//
//sgxperf:hotpath
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos < len(d.data) {
		if b := d.data[d.pos]; b < 0x80 {
			d.pos++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail(corruptf("truncated uvarint at offset %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
//
//sgxperf:hotpath
func (d *Decoder) Varint() int64 {
	ux := d.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// Float64 reads a fixed 8-byte little-endian float.
//
//sgxperf:hotpath
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.fail(corruptf("truncated float64 at offset %d", d.pos))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// Length reads a uvarint element count and validates it against the
// bytes remaining (every encoded element occupies at least one byte), so
// corrupt counts cannot trigger outsized allocations in RowCodecs.
func (d *Decoder) Length() int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.pos) {
		d.fail(corruptf("element count %d with %d bytes remaining", v, len(d.data)-d.pos))
		return 0
	}
	return int(v)
}

// String reads a dictionary index and resolves it.
//
//sgxperf:hotpath
func (d *Decoder) String() string {
	idx := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if idx >= uint64(len(d.dict)) {
		d.fail(corruptf("string index %d outside dictionary of %d", idx, len(d.dict)))
		return ""
	}
	return d.dict[idx]
}

// ---------------------------------------------------------------------
// Table-level encode: snapshot chunks, encode them on the pool, write.

// encodeChunkPayload produces one chunk's payload bytes.
func (t *Table[T]) encodeChunkPayload(rows []T) []byte {
	// Pre-size for the common shape — a dozen-odd mostly-single-byte
	// columns per row — so the append path grows the buffer rarely.
	e := Encoder{col: make([]byte, 0, 16*len(rows)+64)}
	t.codec.Encode(&e, rows)
	return e.finish()
}

// tableIndex is one table's entry in the chunk index (stream.go). Save
// collects it while writeBinary emits the table, Load while readBinary
// decodes it, and a StreamReader parses it from the file's index.
type tableIndex struct {
	name   string
	rows   int
	chunks []ChunkInfo
}

// writeBinary serialises the table: header, then each chunk encoded and
// hashed in parallel on the shared pool and written in order. The
// returned index records each chunk's file offset, row count and
// content hash.
func (t *Table[T]) writeBinary(w *countingWriter) (tableIndex, error) {
	// The snapshot stays valid after Chunks releases the table lock, so
	// the chunks encode concurrently while recording goes on.
	chunks := t.Chunks()
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	idx := tableIndex{name: t.name, rows: total}

	head := binary.AppendUvarint(nil, uint64(len(t.name)))
	head = append(head, t.name...)
	head = append(head, codecColumnar)
	head = binary.AppendUvarint(head, uint64(total))
	head = binary.AppendUvarint(head, uint64(len(chunks)))
	if _, err := w.Write(head); err != nil {
		return idx, err
	}

	payloads := make([][]byte, len(chunks))
	hashes := make([]uint64, len(chunks))
	pool.ForEach(len(chunks), func(i int) {
		payloads[i] = t.encodeChunkPayload(chunks[i])
		hashes[i] = hashChunkPayload(payloads[i])
	})

	idx.chunks = make([]ChunkInfo, len(chunks))
	var chead []byte
	for i, p := range payloads {
		idx.chunks[i] = ChunkInfo{Offset: w.n, Rows: len(chunks[i]), Hash: hashes[i]}
		chead = binary.AppendUvarint(chead[:0], uint64(len(chunks[i])))
		chead = append(chead, 0) // flags
		chead = binary.AppendUvarint(chead, uint64(len(p)))
		if _, err := w.Write(chead); err != nil {
			return idx, err
		}
		if _, err := w.Write(p); err != nil {
			return idx, err
		}
	}
	return idx, nil
}

// countingWriter tracks the absolute file offset so writeBinary can
// record chunk offsets for the index.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ---------------------------------------------------------------------
// Table-level decode: stream chunk windows, decode them on the pool,
// append in order.

// rawChunk is one chunk read off the wire, pre-decode, with the file
// offset of its header.
type rawChunk struct {
	off     int64
	nrows   int
	payload []byte
}

func (t *Table[T]) readBinary(cr *countingReader) (tableIndex, error) {
	idx := tableIndex{name: t.name}
	if err := cr.readCodec(t.name); err != nil {
		return idx, err
	}
	total, err := cr.readUvarint(maxDecodeRows)
	if err != nil {
		return idx, err
	}
	idx.rows = int(total)
	nchunks, err := cr.readUvarint(maxDecodeRows)
	if err != nil {
		return idx, err
	}

	t.mu.Lock()
	t.chunks = nil
	t.length = 0
	t.invalidateHashesLocked()
	t.mu.Unlock()

	// Stream a window of chunks at a time: sequential reads, parallel
	// decode, in-order append. Memory stays bounded by the window, not
	// the table.
	window := pool.Size() * 2
	if window < 4 {
		window = 4
	}
	decoded := 0
	for done := 0; done < int(nchunks); {
		n := int(nchunks) - done
		if n > window {
			n = window
		}
		raws := make([]rawChunk, n)
		for i := 0; i < n; i++ {
			if raws[i], err = cr.readChunk(); err != nil {
				return idx, fmt.Errorf("table %q chunk %d: %w", t.name, done+i, err)
			}
		}
		// Fresh row slices per chunk: the table adopts them.
		rows := make([][]T, n)
		errs := make([]error, n)
		pool.ForEach(n, func(i int) {
			var d Decoder
			rows[i], errs[i] = decodeChunkPayload(t.codec, &d, raws[i].payload, raws[i].nrows, nil)
		})
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				return idx, fmt.Errorf("table %q chunk %d: %w", t.name, done+i, errs[i])
			}
			decoded += len(rows[i])
			if decoded > int(total) {
				return idx, corruptf("table %q: more rows than declared (%d > %d)", t.name, decoded, total)
			}
			idx.chunks = append(idx.chunks, ChunkInfo{Offset: raws[i].off, Rows: len(rows[i])})
			t.appendDecoded(rows[i])
		}
		done += n
	}
	if decoded != int(total) {
		return idx, corruptf("table %q: %d rows decoded, header declared %d", t.name, decoded, total)
	}
	return idx, nil
}

// decodeChunkPayload decodes one chunk payload of nrows rows through d
// — the shared core of the resident loader and the stream cursors. The
// rows land in buf's storage, cleared first, when it has the capacity,
// and in a fresh slice otherwise.
func decodeChunkPayload[T any](codec RowCodec[T], d *Decoder, payload []byte, nrows int, buf []T) ([]T, error) {
	// Every row occupies at least one payload byte, so a row count above
	// the payload size is corrupt — reject it before the row slice is
	// allocated.
	if nrows > len(payload) {
		return nil, corruptf("%d rows declared in a %d-byte payload", nrows, len(payload))
	}
	if err := d.reset(payload); err != nil {
		return nil, err
	}
	var rows []T
	if cap(buf) >= nrows {
		rows = buf[:nrows]
		clear(rows)
	} else {
		rows = make([]T, nrows)
	}
	codec.Decode(d, rows)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// appendDecoded appends one decoded chunk's rows. Decoded chunks arrive
// at exactly the storage chunk size except the last (writeBinary emits
// storage chunks), so a full chunk slice is adopted directly instead of
// copied; the indexing invariant — every chunk but the last holds
// exactly chunkSize rows — is preserved because adoption only happens
// when the previous chunk is full.
func (t *Table[T]) appendDecoded(rows []T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(rows) == chunkSize {
		if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == chunkSize {
			t.chunks = append(t.chunks, rows)
			t.length += len(rows)
			return
		}
	}
	t.appendLocked(rows)
}

// ---------------------------------------------------------------------
// Wire-reading helpers.

// countingReader wraps a file stream with bounds-checked primitives and
// counts the bytes consumed, so the loader can record chunk offsets.
type countingReader struct {
	r interface {
		io.Reader
		io.ByteReader
	}
	n int64
}

// ReadByte makes the reader an io.ByteReader for binary.ReadUvarint.
func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) readUvarint(limit uint64) (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, corruptf("truncated varint: %v", err)
	}
	if v > limit {
		return 0, corruptf("value %d exceeds limit %d", v, limit)
	}
	return v, nil
}

// readN reads exactly n bytes. The declared n is not trusted: at most
// maxPrealloc bytes are allocated up front, and the buffer doubles only
// once the bytes already read fill it, so a header that promises more
// than the input holds costs about what the input actually holds.
func (c *countingReader) readN(n int) ([]byte, error) {
	buf := make([]byte, min(n, maxPrealloc))
	for read := 0; ; {
		m, err := io.ReadFull(c.r, buf[read:])
		c.n += int64(m)
		read += m
		if err != nil {
			return nil, corruptf("truncated read of %d bytes: %v", n, err)
		}
		if read == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-read, read))...)
	}
}

func (c *countingReader) readString(limit uint64) (string, error) {
	n, err := c.readUvarint(limit)
	if err != nil {
		return "", err
	}
	b, err := c.readN(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readCodec reads a table's codec byte, which must name the columnar
// codec.
func (c *countingReader) readCodec(table string) error {
	b, err := c.ReadByte()
	if err != nil {
		return corruptf("table %q: truncated codec byte: %v", table, err)
	}
	if b != codecColumnar {
		return corruptf("table %q: codec byte %d is not columnar (%d)", table, b, codecColumnar)
	}
	return nil
}

func (c *countingReader) readChunk() (rawChunk, error) {
	rc := rawChunk{off: c.n}
	nrows, plen, err := c.readChunkHeader()
	if err != nil {
		return rc, err
	}
	rc.nrows = nrows
	rc.payload, err = c.readN(plen)
	return rc, err
}

// readChunkHeader reads a chunk header: the row count, the flags byte
// and the payload length, each checked against its cap.
func (c *countingReader) readChunkHeader() (nrows, plen int, err error) {
	rows, err := c.readUvarint(chunkSize)
	if err != nil {
		return 0, 0, err
	}
	flags, err := c.ReadByte()
	if err != nil {
		return 0, 0, corruptf("truncated chunk flags: %v", err)
	}
	if flags != 0 {
		return 0, 0, corruptf("chunk flags %#x set; no chunk flag is defined", flags)
	}
	n, err := c.readUvarint(maxDecodeChunkLen)
	if err != nil {
		return 0, 0, err
	}
	return int(rows), int(n), nil
}

// ---------------------------------------------------------------------
// DB-level save/load.

// saveBinary writes the table data followed by the chunk index and
// footer (stream.go). Caller holds db.mu.
func (db *DB) saveBinary(w io.Writer) error {
	cw := &countingWriter{w: w}
	head := binary.AppendUvarint([]byte(magic), uint64(len(db.tables)))
	if _, err := cw.Write(head); err != nil {
		return fmt.Errorf("evstore: header: %w", err)
	}
	index := make([]tableIndex, 0, len(db.tables))
	for _, t := range db.tables {
		idx, err := t.writeBinary(cw)
		if err != nil {
			return fmt.Errorf("evstore: table %q: %w", t.Name(), err)
		}
		index = append(index, idx)
	}
	indexOff := cw.n
	blob := appendStreamIndex(nil, index)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(indexOff))
	blob = append(blob, indexMagic...)
	if _, err := cw.Write(blob); err != nil {
		return fmt.Errorf("evstore: index: %w", err)
	}
	return nil
}

// loadBinary reads a trace file front to back. The trailing chunk index
// and footer are read and cross-checked against the tables actually
// decoded, so a truncated or structurally inconsistent file always
// errors even on this sequential path. Caller holds db.mu.
func (db *DB) loadBinary(r *bufio.Reader) error {
	cr := &countingReader{r: r}
	head, err := cr.readN(len(magic))
	if err != nil {
		return fmt.Errorf("evstore: header: %w", err)
	}
	if err := checkMagic(head); err != nil {
		return err
	}
	ntables, err := cr.readUvarint(maxDecodeTables)
	if err != nil {
		return fmt.Errorf("evstore: header: %w", err)
	}
	if int(ntables) != len(db.tables) {
		return corruptf("file has %d tables, schema has %d", ntables, len(db.tables))
	}
	marks := make([]tableIndex, 0, len(db.tables))
	for i, t := range db.tables {
		name, err := cr.readString(maxDecodeName)
		if err != nil {
			return fmt.Errorf("evstore: table %d: %w", i, err)
		}
		if name != t.Name() {
			return corruptf("table %d is %q in file, %q in schema", i, name, t.Name())
		}
		idx, err := t.readBinary(cr)
		if err != nil {
			return fmt.Errorf("evstore: table %q: %w", name, err)
		}
		marks = append(marks, idx)
	}
	return validateStreamIndex(cr, marks)
}

// validateStreamIndex reads the index block and footer off the
// sequential stream and checks them against the tables just decoded.
// Chunk hashes are carried, not recomputed — the structural cross-check
// is what guarantees truncations cannot pass silently.
func validateStreamIndex(cr *countingReader, marks []tableIndex) error {
	indexOff := cr.n
	tables, err := parseStreamIndex(cr, indexOff)
	if err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	if len(tables) != len(marks) {
		return corruptf("index describes %d tables, file holds %d", len(tables), len(marks))
	}
	for i, ti := range tables {
		m := marks[i]
		if ti.name != m.name || ti.rows != m.rows || len(ti.chunks) != len(m.chunks) {
			return corruptf("index entry for table %q does not match its data", m.name)
		}
		for j, c := range ti.chunks {
			if c.Offset != m.chunks[j].Offset || c.Rows != m.chunks[j].Rows {
				return corruptf("index entry for table %q chunk %d does not match its data", m.name, j)
			}
		}
	}
	foot, err := cr.readN(footerSize)
	if err != nil {
		return fmt.Errorf("evstore: footer: %w", err)
	}
	if int64(binary.LittleEndian.Uint64(foot[:8])) != indexOff || string(foot[8:]) != indexMagic {
		return corruptf("footer does not match index position")
	}
	return nil
}
