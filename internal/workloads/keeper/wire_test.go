package keeper

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// The bytes SecureKeeper puts on the wire, pinned: path pseudonyms,
// load payloads and sealed request packets. The literals are what the
// workload produced when every packet, pseudonym and payload was a
// fresh allocation, so sealing, encoding and filling in place must
// reproduce them.

func TestPathPseudonyms(t *testing.T) {
	cases := []struct{ key, path, want string }{
		{"client-0-key", "/c0", "/08c16a0c2b694b72"},
		{"client-0-key", "/app/secret", "/0628072bd7d7cb81/28f56e3557713083"},
		{"client-0-key", "/a/b/c", "/cc085f03fdf786d7/5eff494a90807662/61d92ecb9c6e1b7a"},
		{"client-0-key", "/", "/"},
		{"client-7-key", "/c0", "/c265a65f62b33b7a"},
	}
	for _, c := range cases {
		if got := newPathMAC([]byte(c.key)).pseudonym(c.path); got != c.want {
			t.Errorf("pseudonym(%q, %q) = %q, want %q", c.key, c.path, got, c.want)
		}
	}
	// A session reuses its MAC for every path, in any order.
	m := newPathMAC([]byte("client-0-key"))
	for round := 0; round < 2; round++ {
		for i := len(cases) - 2; i >= 0; i-- {
			if got := m.pseudonym(cases[i].path); got != cases[i].want {
				t.Errorf("round %d: reused MAC maps %q to %q, want %q", round, cases[i].path, got, cases[i].want)
			}
		}
	}
}

// wantPayload is payload i of nominal size base as one fresh slice,
// byte by byte.
func wantPayload(i, base int) []byte {
	size := base/4 + (i*2654435761)%(2*base)
	if size < 16 {
		size = 16
	}
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func TestPayloadRamp(t *testing.T) {
	var buf []byte
	short := 0
	for _, base := range []int{16, 40, 100, 255, 256, 257, 700, 1024, 1056} {
		for i := 0; i < 600; i++ {
			for _, n := range []int{i, 7*100000 + i} {
				want := wantPayload(n, base)
				if len(want) < 256 {
					short++
				}
				buf = appendPayload(buf[:0], n, base)
				if string(buf) != string(want) {
					t.Fatalf("payload (%d, %d): got %d bytes %x..., want %d bytes %x...",
						n, base, len(buf), buf[:min(len(buf), 8)], len(want), want[:8])
				}
			}
		}
	}
	if short == 0 {
		t.Fatal("the grid has no payload shorter than one ramp period")
	}
	p := appendPayload(nil, 3, 1024)
	if sum := sha256.Sum256(p); len(p) != 1555 || hex.EncodeToString(sum[:]) != "5a85a7d85011044bcde20dbf11384428c6a140bab5defdde8efc130a62b1a7dc" {
		t.Errorf("payload (3, 1024): %d bytes, sha256 %x", len(p), sum)
	}
}

func TestSealedRequestBytes(t *testing.T) {
	key := []byte("transport-c2s-client-0-key")
	send, err := newBox(key)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := newBox(key)
	if err != nil {
		t.Fatal(err)
	}
	payload := appendPayload(nil, 3, 1024)
	for _, c := range []struct {
		req  Request
		n    int
		want string
	}{
		{Request{Op: OpSetData, Path: "/c0", Data: payload, Version: -1}, 1602, "efffbfb0d6260fa0cdbfa9867793742db874573ab171b4fb7691986f1c522d45"},
		{Request{Op: OpGetData, Path: "/c0", Version: -1}, 47, "b12d4588311a9d37636189e411bc60ac14f11cf14aa869562f42405103dd09cf"},
	} {
		sealed := send.Seal(appendRequest(send.packet(requestLen(c.req)), c.req))
		if sum := sha256.Sum256(sealed); len(sealed) != c.n || hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("sealed %s: %d bytes, sha256 %x; want %d bytes, %s", c.req.Op, len(sealed), sum, c.n, c.want)
		}
		plain, err := recv.Open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.req) {
			t.Errorf("round trip of %s: got %+v", c.req.Op, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	b, err := newBox([]byte("transport-s2c-client-0-key"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Response{
		{},
		{Version: -1, Exists: true},
		{Err: ErrNoNode.Error()},
		{Data: []byte("znode payload"), Version: 3},
		{Children: []string{"a", "bc", "def"}},
		{Children: []string{"", "x"}},
	} {
		n := responseLen(r)
		p := appendResponse(b.packet(n), r)
		if len(p) != b.aead.NonceSize()+n || cap(p) != len(p)+b.aead.Overhead() {
			t.Fatalf("%+v: packet len %d cap %d for a %d-byte encoding", r, len(p), cap(p), n)
		}
		plain, err := b.Open(b.Seal(p))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponse(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip: got %+v, want %+v", got, r)
		}
	}
}
