package evstore

// The out-of-core read path. A trace file (codec.go) ends with a chunk
// index after the table data:
//
//	file   := magic | uvarint(#tables) | table* | index | footer
//	index  := uvarint(#tables) | tindex*
//	tindex := str(name) | byte(codec: 1 columnar) | uvarint(#rows) |
//	          uvarint(#chunks) | centry*
//	centry := uvarint(file offset of chunk header) | uvarint(#rows) |
//	          8-byte LE FNV-1a chunk hash
//	footer := 8-byte LE file offset of index | "sgxEVIDX"
//
// The per-chunk hash is exactly Table.hashChunk's: FNV-1a over the codec
// byte and the payload. That identity is what lets a reader compute
// Trace.ContentKey — and an artifact cache reuse chunk-keyed work —
// without decoding a single row.
//
// StreamReader opens a saved file through the index and hands out
// per-table StreamCursors that decode one chunk at a time, reusing the
// chunk header checks, decodeChunkPayload and the sticky-error Decoder.
// A cursor reads each chunk into the same buffers, so nothing is
// materialised or allocated beyond the chunk in hand, and a multi-GiB
// trace streams through O(chunk) memory.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// indexMagic terminates a trace file; the preceding 8 bytes locate the
// index block.
const indexMagic = "sgxEVIDX"

// footerSize is the fixed byte size of the footer.
const footerSize = 8 + len(indexMagic)

// ChunkInfo describes one chunk of a streamed table: where it lives in
// the file, how many rows it decodes to, and its content hash (FNV-1a
// over the codec byte and the payload — identical to Table.ChunkHashes).
type ChunkInfo struct {
	Offset int64
	Rows   int
	Hash   uint64
}

// StreamReader iterates a saved binary trace file chunk-by-chunk without
// materialising tables. It is safe for concurrent cursor reads: the
// underlying reader is an io.ReaderAt and the index is immutable after
// open.
type StreamReader struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer
	tables []*tableIndex
	byName map[string]*tableIndex
}

// OpenStream opens the trace file at path for streaming reads.
func OpenStream(path string) (*StreamReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("evstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("evstore: %w", err)
	}
	sr, err := NewStreamReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	sr.closer = f
	return sr, nil
}

// NewStreamReader builds a StreamReader over size bytes of r, opening the
// file through its chunk index.
func NewStreamReader(r io.ReaderAt, size int64) (*StreamReader, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), head); err != nil {
		return nil, corruptf("reading magic: %v", err)
	}
	if err := checkMagic(head); err != nil {
		return nil, err
	}
	sr := &StreamReader{r: r, size: size}
	if err := sr.openIndexed(); err != nil {
		return nil, err
	}
	sr.byName = make(map[string]*tableIndex, len(sr.tables))
	for _, t := range sr.tables {
		if _, dup := sr.byName[t.name]; dup {
			return nil, corruptf("duplicate table %q in index", t.name)
		}
		sr.byName[t.name] = t
	}
	return sr, nil
}

// openIndexed reads the file's footer and index block.
func (sr *StreamReader) openIndexed() error {
	if sr.size < int64(len(magic)+footerSize) {
		return corruptf("file of %d bytes cannot hold a footer", sr.size)
	}
	foot := make([]byte, footerSize)
	if _, err := io.ReadFull(io.NewSectionReader(sr.r, sr.size-int64(footerSize), int64(footerSize)), foot); err != nil {
		return corruptf("reading footer: %v", err)
	}
	if string(foot[8:]) != indexMagic {
		return corruptf("bad index magic %q", foot[8:])
	}
	off := int64(binary.LittleEndian.Uint64(foot[:8]))
	if off < int64(len(magic)) || off >= sr.size-int64(footerSize) {
		return corruptf("index offset %d outside file of %d bytes", off, sr.size)
	}
	blob := make([]byte, sr.size-int64(footerSize)-off)
	if _, err := io.ReadFull(io.NewSectionReader(sr.r, off, int64(len(blob))), blob); err != nil {
		return corruptf("reading index: %v", err)
	}
	tables, err := parseStreamIndex(&countingReader{r: bytes.NewReader(blob)}, off)
	if err != nil {
		return err
	}
	sr.tables = tables
	return nil
}

// parseStreamIndex decodes an index block. dataEnd bounds the chunk
// offsets: every chunk must start before the index does.
func parseStreamIndex(cr *countingReader, dataEnd int64) ([]*tableIndex, error) {
	ntables, err := cr.readUvarint(maxDecodeTables)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	tables := make([]*tableIndex, 0, ntables)
	prevEnd := int64(len(magic))
	for i := 0; i < int(ntables); i++ {
		t := &tableIndex{}
		if t.name, err = cr.readString(maxDecodeName); err != nil {
			return nil, fmt.Errorf("index table %d: %w", i, err)
		}
		if err := cr.readCodec(t.name); err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		rows, err := cr.readUvarint(maxDecodeRows)
		if err != nil {
			return nil, fmt.Errorf("index table %q: %w", t.name, err)
		}
		t.rows = int(rows)
		nchunks, err := cr.readUvarint(maxDecodeRows)
		if err != nil {
			return nil, fmt.Errorf("index table %q: %w", t.name, err)
		}
		sum := 0
		// Every entry takes at least ten bytes, but the sequential load
		// path cannot see how many remain: cap the up-front capacity.
		t.chunks = make([]ChunkInfo, 0, min(nchunks, 1<<10))
		for j := 0; j < int(nchunks); j++ {
			off, err := cr.readUvarint(uint64(dataEnd))
			if err != nil {
				return nil, fmt.Errorf("index table %q chunk %d: %w", t.name, j, err)
			}
			crows, err := cr.readUvarint(chunkSize)
			if err != nil {
				return nil, fmt.Errorf("index table %q chunk %d: %w", t.name, j, err)
			}
			hb, err := cr.readN(8)
			if err != nil {
				return nil, fmt.Errorf("index table %q chunk %d: %w", t.name, j, err)
			}
			if int64(off) < prevEnd {
				return nil, corruptf("index table %q chunk %d: offset %d is not monotone", t.name, j, off)
			}
			prevEnd = int64(off)
			sum += int(crows)
			t.chunks = append(t.chunks, ChunkInfo{
				Offset: int64(off),
				Rows:   int(crows),
				Hash:   binary.LittleEndian.Uint64(hb),
			})
		}
		if sum != t.rows {
			return nil, corruptf("index table %q: chunk rows sum to %d, header declares %d", t.name, sum, t.rows)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// appendStreamIndex serialises the index block for saveBinary.
func appendStreamIndex(buf []byte, tables []tableIndex) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	for _, t := range tables {
		buf = binary.AppendUvarint(buf, uint64(len(t.name)))
		buf = append(buf, t.name...)
		buf = append(buf, codecColumnar)
		buf = binary.AppendUvarint(buf, uint64(t.rows))
		buf = binary.AppendUvarint(buf, uint64(len(t.chunks)))
		for _, c := range t.chunks {
			buf = binary.AppendUvarint(buf, uint64(c.Offset))
			buf = binary.AppendUvarint(buf, uint64(c.Rows))
			buf = binary.LittleEndian.AppendUint64(buf, c.Hash)
		}
	}
	return buf
}

// Close releases the underlying file, when the reader owns one.
func (sr *StreamReader) Close() error {
	if sr.closer != nil {
		return sr.closer.Close()
	}
	return nil
}

// TableNames lists the file's tables in file order.
func (sr *StreamReader) TableNames() []string {
	out := make([]string, len(sr.tables))
	for i, t := range sr.tables {
		out[i] = t.name
	}
	return out
}

// Rows returns the named table's total row count, or ok=false when the
// file has no such table.
func (sr *StreamReader) Rows(name string) (int, bool) {
	t, ok := sr.byName[name]
	if !ok {
		return 0, false
	}
	return t.rows, true
}

// AppendChunkHashes appends the named table's per-chunk content hashes
// — identical to Table.ChunkHashes over the loaded rows — to dst and
// returns the extended slice; dst is returned unchanged when the file
// has no such table.
func (sr *StreamReader) AppendChunkHashes(dst []uint64, name string) []uint64 {
	t, ok := sr.byName[name]
	if !ok {
		return dst
	}
	for _, c := range t.chunks {
		dst = append(dst, c.Hash)
	}
	return dst
}

// Chunks returns the named table's chunk descriptors.
func (sr *StreamReader) Chunks(name string) []ChunkInfo {
	t, ok := sr.byName[name]
	if !ok {
		return nil
	}
	return append([]ChunkInfo(nil), t.chunks...)
}

// StreamCursor iterates one table's chunks in order, decoding each with
// the table's RowCodec. A cursor holds at most one decoded chunk's rows
// and recycles its buffers: each chunk is read into the same payload
// buffer and decoded into the same row slice, so the rows Next returns
// stay valid only until the cursor's next Next or Seek. A caller that
// keeps rows longer copies them, or reads through a second cursor
// (Clone). Cursors over the same StreamReader are independent, so one
// table can be read by several goroutines each holding its own cursor.
type StreamCursor[T any] struct {
	sr    *StreamReader
	t     *tableIndex
	codec RowCodec[T]
	next  int

	// The recycled read state: the chunk header bytes and the readers
	// over them, the payload, the decoder and the decoded rows.
	head    [maxChunkHeader]byte
	headR   bytes.Reader
	headCR  countingReader
	payload []byte
	dec     Decoder
	rows    []T
}

// maxChunkHeader bounds a chunk header: two uvarints around the flags
// byte.
const maxChunkHeader = 2*binary.MaxVarintLen64 + 1

// NewStreamCursor opens a cursor over the named table. codec must be the
// RowCodec the table was written with.
func NewStreamCursor[T any](sr *StreamReader, name string, codec RowCodec[T]) (*StreamCursor[T], error) {
	t, ok := sr.byName[name]
	if !ok {
		return nil, corruptf("no table %q in stream (have %v)", name, sr.TableNames())
	}
	return &StreamCursor[T]{sr: sr, t: t, codec: codec}, nil
}

// Clone returns a cursor over the same table at the same position with
// buffers of its own, so neither cursor's reads overwrite the rows the
// other returned.
func (c *StreamCursor[T]) Clone() *StreamCursor[T] {
	return &StreamCursor[T]{sr: c.sr, t: c.t, codec: c.codec, next: c.next}
}

// NumChunks returns the number of chunks the cursor iterates.
func (c *StreamCursor[T]) NumChunks() int { return len(c.t.chunks) }

// Rows returns the table's total row count.
func (c *StreamCursor[T]) Rows() int { return c.t.rows }

// Seek positions the cursor so the next Next returns chunk i.
func (c *StreamCursor[T]) Seek(i int) error {
	if i < 0 || i > len(c.t.chunks) {
		return corruptf("seek to chunk %d of table %q with %d chunks", i, c.t.name, len(c.t.chunks))
	}
	c.next = i
	return nil
}

// Next decodes and returns the next chunk's rows, or (nil, nil) after the
// last chunk. The rows live in the cursor's buffer until its next Next
// or Seek. The payload is verified against the index's chunk hash before
// it is decoded, so silent mid-stream corruption surfaces as ErrCorrupt
// rather than as wrong rows.
func (c *StreamCursor[T]) Next() ([]T, error) {
	if c.next >= len(c.t.chunks) {
		return nil, nil
	}
	i := c.next
	c.next++
	rows, err := c.readChunk(i)
	if err != nil {
		return nil, fmt.Errorf("evstore: table %q chunk %d: %w", c.t.name, i, err)
	}
	c.rows = rows
	return rows, nil
}

// readChunk reads, verifies and decodes one indexed chunk into the
// cursor's buffers: one read of the header, one of the payload.
func (c *StreamCursor[T]) readChunk(i int) ([]T, error) {
	info := c.t.chunks[i]
	head, err := c.sr.readAt(info.Offset, int(min(int64(len(c.head)), c.sr.size-info.Offset)), c.head[:0])
	if err != nil {
		return nil, err
	}
	c.headR.Reset(head)
	c.headCR = countingReader{r: &c.headR}
	nrows, plen, err := c.headCR.readChunkHeader()
	if err != nil {
		return nil, err
	}
	if nrows != info.Rows {
		return nil, corruptf("chunk header declares %d rows, index %d", nrows, info.Rows)
	}
	payload, err := c.sr.readAt(info.Offset+c.headCR.n, plen, c.payload)
	if err != nil {
		return nil, err
	}
	c.payload = payload
	if h := hashChunkPayload(payload); h != info.Hash {
		return nil, corruptf("chunk hash %016x does not match index hash %016x", h, info.Hash)
	}
	return decodeChunkPayload(c.codec, &c.dec, payload, nrows, c.rows)
}

// readAt reads exactly n bytes at off into buf's storage when it has the
// capacity. No byte past the reader's size is read, and like readN it
// does not trust n: beyond buf's capacity at most maxPrealloc bytes are
// allocated before any arrive, and the buffer grows only as reads fill
// it.
func (sr *StreamReader) readAt(off int64, n int, buf []byte) ([]byte, error) {
	if off < 0 || off > sr.size || int64(n) > sr.size-off {
		return nil, corruptf("truncated read of %d bytes at offset %d of %d", n, off, sr.size)
	}
	if cap(buf) < min(n, maxPrealloc) {
		buf = make([]byte, 0, min(n, maxPrealloc))
	}
	buf = buf[:min(n, cap(buf))]
	for read := 0; read < n; {
		m, err := sr.r.ReadAt(buf[read:], off+int64(read))
		read += m
		if read == n {
			return buf, nil
		}
		if read < len(buf) {
			return nil, corruptf("truncated read of %d bytes: %v", n, err)
		}
		buf = append(buf, make([]byte, min(n-read, read))...)
	}
	return buf, nil
}
