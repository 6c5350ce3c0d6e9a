package keeper

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"sync"
)

// box is an AES-GCM channel with a counter nonce — the transport
// encryption between client and proxy, and the storage encryption of
// payloads forwarded to ZooKeeper. A packet is one buffer: the nonce,
// then the ciphertext and its tag. Packets are sealed and opened in
// place.
type box struct {
	mu   sync.Mutex
	aead cipher.AEAD
	seq  uint64
}

func newBox(key []byte) (*box, error) {
	sum := sha256.Sum256(key)
	block, err := aes.NewCipher(sum[:16])
	if err != nil {
		return nil, fmt.Errorf("keeper: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("keeper: %w", err)
	}
	return &box{aead: aead}, nil
}

// packet returns an unsealed packet for n plaintext bytes: room for the
// nonce, with capacity for the plaintext and the tag. The caller
// appends the plaintext and passes the packet to Seal.
func (b *box) packet(n int) []byte {
	ns := b.aead.NonceSize()
	return make([]byte, ns, ns+n+b.aead.Overhead())
}

// packetIn is packet(n) built in room: room's array when it can hold
// the sealed packet, a fresh packet otherwise. The caller owns room.
func (b *box) packetIn(room []byte, n int) []byte {
	ns := b.aead.NonceSize()
	if cap(room) < ns+n+b.aead.Overhead() {
		return b.packet(n)
	}
	return room[:ns]
}

// Seal encrypts in place the plaintext appended to p after its nonce
// room, writes the next counter nonce into that room and returns the
// sealed packet.
func (b *box) Seal(p []byte) []byte {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	ns := b.aead.NonceSize()
	clear(p[:ns])
	binary.LittleEndian.PutUint64(p, seq)
	return b.aead.Seal(p[:ns], p[:ns], p[ns:], nil)
}

// Open decrypts a sealed packet in place and returns the plaintext,
// which aliases the packet: the caller must own the packet.
func (b *box) Open(sealed []byte) ([]byte, error) {
	ns := b.aead.NonceSize()
	if len(sealed) < ns {
		return nil, fmt.Errorf("keeper: sealed packet too short")
	}
	return b.aead.Open(sealed[ns:ns], sealed[:ns], sealed[ns:], nil)
}

// pathMAC pseudonymises ZooKeeper paths segment-wise, preserving the
// hierarchy so the untrusted service can still organise znodes — the
// SecureKeeper scheme. A segment's pseudonym is the first 8 bytes of
// its HMAC-SHA256 under the client's path key, in hex. Each session
// keeps one, built at connect.
type pathMAC struct {
	mu  sync.Mutex
	mac hash.Hash
	sum []byte // the last segment's MAC, recycled
}

func newPathMAC(key []byte) *pathMAC {
	return &pathMAC{mac: hmac.New(sha256.New, key)}
}

// pseudonym returns path's pseudonym; the root stays "/".
func (m *pathMAC) pseudonym(path string) string {
	if path == "/" {
		return "/"
	}
	rest := strings.TrimPrefix(path, "/")
	var out strings.Builder
	out.Grow((strings.Count(rest, "/") + 1) * 17)
	m.mu.Lock()
	defer m.mu.Unlock()
	for more := true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		m.mac.Reset()
		m.mac.Write([]byte(seg))
		m.sum = m.mac.Sum(m.sum[:0])
		var hx [16]byte
		hex.Encode(hx[:], m.sum[:8])
		out.WriteByte('/')
		out.Write(hx[:])
	}
	return out.String()
}

// requestLen is the length of r's transport encoding.
func requestLen(r Request) int { return 16 + len(r.Path) + len(r.Data) }

// appendRequest appends r's transport encoding to dst: a 16-byte
// header (op, version, path and data lengths), the path and the data.
func appendRequest(dst []byte, r Request) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Op))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Version)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Path)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
	dst = append(dst, r.Path...)
	return append(dst, r.Data...)
}

// decodeRequest decodes an appendRequest encoding. The request's Data
// aliases b.
func decodeRequest(b []byte) (Request, error) {
	if len(b) < 16 {
		return Request{}, fmt.Errorf("keeper: truncated request")
	}
	pathLen := int(binary.LittleEndian.Uint32(b[8:12]))
	dataLen := int(binary.LittleEndian.Uint32(b[12:16]))
	if len(b) != 16+pathLen+dataLen {
		return Request{}, fmt.Errorf("keeper: request length mismatch")
	}
	r := Request{
		Op:      ZKOp(binary.LittleEndian.Uint32(b[0:4])),
		Version: int(int32(binary.LittleEndian.Uint32(b[4:8]))),
		Path:    string(b[16 : 16+pathLen]),
	}
	if dataLen > 0 {
		r.Data = b[16+pathLen:]
	}
	return r, nil
}

// responseLen is the length of r's transport encoding.
func responseLen(r Response) int { return 20 + len(r.Err) + len(r.Data) + childrenLen(r.Children) }

// childrenLen is the length of children joined by NUL bytes.
func childrenLen(children []string) int {
	n := max(len(children)-1, 0)
	for _, c := range children {
		n += len(c)
	}
	return n
}

// appendResponse appends r's transport encoding to dst: a 20-byte
// header (version, error, data and children lengths, exists flag), the
// error, the data and the children joined by NUL bytes.
func appendResponse(dst []byte, r Response) []byte {
	var exists byte
	if r.Exists {
		exists = 1
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Version)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Err)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(childrenLen(r.Children)))
	dst = append(dst, exists, 0, 0, 0)
	dst = append(dst, r.Err...)
	dst = append(dst, r.Data...)
	for i, c := range r.Children {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, c...)
	}
	return dst
}

// decodeResponse decodes an appendResponse encoding. The response's
// Data aliases b.
func decodeResponse(b []byte) (Response, error) {
	if len(b) < 20 {
		return Response{}, fmt.Errorf("keeper: truncated response")
	}
	errLen := int(binary.LittleEndian.Uint32(b[4:8]))
	dataLen := int(binary.LittleEndian.Uint32(b[8:12]))
	childLen := int(binary.LittleEndian.Uint32(b[12:16]))
	if len(b) != 20+errLen+dataLen+childLen {
		return Response{}, fmt.Errorf("keeper: response length mismatch")
	}
	r := Response{
		Version: int(int32(binary.LittleEndian.Uint32(b[0:4]))),
		Exists:  b[16] == 1,
	}
	off := 20
	r.Err = string(b[off : off+errLen])
	off += errLen
	if dataLen > 0 {
		r.Data = b[off : off+dataLen]
	}
	off += dataLen
	if childLen > 0 {
		r.Children = strings.Split(string(b[off:off+childLen]), "\x00")
	}
	return r, nil
}
