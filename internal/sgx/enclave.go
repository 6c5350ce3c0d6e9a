package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// EnclaveID identifies an enclave on a machine.
type EnclaveID uint64

// Config describes an enclave to be built. It mirrors the SDK's enclave
// configuration file: heap and stack sizes and the number of concurrent
// threads are fixed at build time (§2.3.3).
type Config struct {
	// Name labels the enclave in traces and reports.
	Name string
	// CodeBytes is the size of the code+static-data segment.
	CodeBytes int
	// HeapBytes is the in-enclave heap size.
	HeapBytes int
	// StackBytes is the per-thread stack size.
	StackBytes int
	// NumTCS is the number of Thread Control Structures, bounding
	// concurrent in-enclave threads.
	NumTCS int
	// Debug marks the enclave as a debug enclave (inspectable by tools).
	Debug bool
	// SGXv2 enables dynamic memory management: heap pages may be added
	// after creation (EAUG) instead of failing allocation.
	SGXv2 bool
	// HeapReserveBytes bounds how much an SGXv2 enclave may grow beyond
	// HeapBytes. Defaults to 3×HeapBytes when SGXv2 is set.
	HeapReserveBytes int
}

func (c *Config) withDefaults() Config {
	cc := *c
	if cc.Name == "" {
		cc.Name = "enclave"
	}
	if cc.CodeBytes <= 0 {
		cc.CodeBytes = 64 * 1024
	}
	if cc.HeapBytes <= 0 {
		cc.HeapBytes = 256 * 1024
	}
	if cc.StackBytes <= 0 {
		cc.StackBytes = 64 * 1024
	}
	if cc.NumTCS <= 0 {
		cc.NumTCS = 1
	}
	if cc.SGXv2 && cc.HeapReserveBytes <= 0 {
		cc.HeapReserveBytes = 3 * cc.HeapBytes
	}
	return cc
}

// ssaPagesPerThread is the number of State Save Area pages per TCS.
const ssaPagesPerThread = 2

// Enclave is a built enclave: a contiguous range of pages starting at Base,
// with a measurement covering every measured page. Pages are added to the
// EPC by the kernel driver, not here.
type Enclave struct {
	ID     EnclaveID
	Base   Vaddr
	Config Config

	pages       []*Page
	measurement [32]byte

	// tcsFree is a bitmap of free TCS slots (bit i set ⇔ slot i free),
	// managed with CAS so concurrent EENTERs never serialise on a mutex.
	tcsFree   []atomic.Uint64
	tcsPages  []*Page
	destroyed atomic.Bool

	mu       sync.Mutex
	heapNext int // byte offset into heap region
	heapSize int
	heap     []*Page // committed heap pages in order
	reserve  []*Page // SGXv2 uncommitted heap pages (EAUG candidates)
}

// buildEnclave lays out the enclave's address space. Layout, in page order:
//
//	SECS | code... | heap... | per thread: guard, stack..., guard, TCS, SSA×2 | padding...
//
// The total size is rounded up to a power of two, as required by the
// enclave measurement (§4.2).
func buildEnclave(id EnclaveID, base Vaddr, cfg Config) *Enclave {
	cfg = cfg.withDefaults()
	e := &Enclave{ID: id, Base: base, Config: cfg}

	addr := base
	add := func(kind PageKind, thread int, sgxPerm Perm) *Page {
		p := &Page{
			Vaddr:   addr,
			Kind:    kind,
			Thread:  thread,
			SGXPerm: sgxPerm,
		}
		p.setMMUPerm(sgxPerm)
		addr += PageSize
		e.pages = append(e.pages, p)
		return p
	}

	add(PageSECS, -1, PermRead)
	for i := 0; i < pagesFor(cfg.CodeBytes); i++ {
		add(PageCode, -1, PermRead|PermExec)
	}
	heapPages := pagesFor(cfg.HeapBytes)
	for i := 0; i < heapPages; i++ {
		e.heap = append(e.heap, add(PageHeap, -1, PermRW))
	}
	e.heapSize = heapPages * PageSize
	// SGXv2 reserve: laid out contiguously after the committed heap so the
	// bump allocator's address arithmetic stays valid; EAUG pages are not
	// part of the build-time measurement.
	for i := 0; i < pagesFor(cfg.HeapReserveBytes); i++ {
		e.reserve = append(e.reserve, add(PageHeap, -1, PermRW))
	}
	for t := 0; t < cfg.NumTCS; t++ {
		add(PageGuard, t, 0)
		for i := 0; i < pagesFor(cfg.StackBytes); i++ {
			add(PageStack, t, PermRW)
		}
		add(PageGuard, t, 0)
		tcs := add(PageTCS, t, PermRW)
		e.tcsPages = append(e.tcsPages, tcs)
		for i := 0; i < ssaPagesPerThread; i++ {
			add(PageSSA, t, PermRW)
		}
	}
	for len(e.pages) < nextPow2(len(e.pages)) {
		add(PagePadding, -1, PermRead)
	}
	e.tcsFree = make([]atomic.Uint64, (cfg.NumTCS+63)/64)
	for t := 0; t < cfg.NumTCS; t++ {
		e.tcsFree[t/64].Store(e.tcsFree[t/64].Load() | 1<<(t%64))
	}
	e.measurement = measure(base, e.pages, e.reserve)
	return e
}

func pagesFor(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + PageSize - 1) / PageSize
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// measure computes MRENCLAVE: a SHA-256 over the ordered page metadata,
// mirroring the EADD/EEXTEND measurement chain. Offsets relative to the
// enclave base are hashed (not absolute addresses): enclaves are
// position-independent, so relocation must not change the measurement.
// SGXv2 reserve pages are excluded: EAUG pages are added after the
// measurement is finalised.
func measure(base Vaddr, pages, exclude []*Page) [32]byte {
	excluded := make(map[*Page]struct{}, len(exclude))
	for _, p := range exclude {
		excluded[p] = struct{}{}
	}
	h := sha256.New()
	var buf [16]byte
	for _, p := range pages {
		if _, skip := excluded[p]; skip {
			continue
		}
		binary.LittleEndian.PutUint64(buf[0:8], uint64(p.Vaddr-base))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(p.Kind))
		binary.LittleEndian.PutUint32(buf[12:16], uint32(p.SGXPerm))
		h.Write(buf[:])
	}
	var m [32]byte
	copy(m[:], h.Sum(nil))
	return m
}

// Measurement returns the enclave's MRENCLAVE.
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// Pages returns the enclave's pages in layout order. Callers must not
// mutate the slice.
func (e *Enclave) Pages() []*Page { return e.pages }

// NumPages returns the total page count including padding.
func (e *Enclave) NumPages() int { return len(e.pages) }

// PageAt returns the page containing vaddr, or nil if out of range.
func (e *Enclave) PageAt(v Vaddr) *Page {
	if v < e.Base {
		return nil
	}
	idx := v.PageIndex(e.Base)
	if idx < 0 || idx >= len(e.pages) {
		return nil
	}
	return e.pages[idx]
}

// Contains reports whether vaddr falls inside the enclave.
func (e *Enclave) Contains(v Vaddr) bool { return e.PageAt(v) != nil }

// acquireTCS binds a free TCS slot, or returns false if all are busy. The
// slot is claimed by clearing its bit with a CAS loop; highest free slot
// wins, matching the previous LIFO free-stack's initial order.
func (e *Enclave) acquireTCS() (int, bool) {
	for {
		retry := false
		for w := len(e.tcsFree) - 1; w >= 0; w-- {
			v := e.tcsFree[w].Load()
			if v == 0 {
				continue
			}
			bit := bits.Len64(v) - 1
			if e.tcsFree[w].CompareAndSwap(v, v&^(1<<bit)) {
				return w*64 + bit, true
			}
			retry = true
			break
		}
		if !retry {
			return 0, false
		}
	}
}

// releaseTCS frees a TCS slot by setting its bit back.
func (e *Enclave) releaseTCS(slot int) {
	w := &e.tcsFree[slot/64]
	mask := uint64(1) << (slot % 64)
	for {
		v := w.Load()
		if w.CompareAndSwap(v, v|mask) {
			return
		}
	}
}

// FreeTCS returns the number of currently unbound TCS slots.
func (e *Enclave) FreeTCS() int {
	n := 0
	for i := range e.tcsFree {
		n += bits.OnesCount64(e.tcsFree[i].Load())
	}
	return n
}

// ErrOutOfEnclaveMemory is returned when a heap allocation exceeds the
// configured heap and the enclave is not SGXv2-expandable (§2.3.3).
var ErrOutOfEnclaveMemory = fmt.Errorf("sgx: out of enclave memory")

// heapAlloc reserves n bytes on the in-enclave heap and returns the start
// address. grow is called with e.mu held when an SGXv2 enclave needs extra
// pages; it must not re-lock. It may be nil for fixed-size enclaves.
func (e *Enclave) heapAlloc(n int, grow func(pages int) ([]*Page, error)) (Vaddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("sgx: invalid allocation size %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Align to 16 bytes like a real allocator.
	n = (n + 15) &^ 15
	if e.heapNext+n > e.heapSize {
		if !e.Config.SGXv2 || grow == nil {
			return 0, ErrOutOfEnclaveMemory
		}
		need := pagesFor(e.heapNext + n - e.heapSize)
		added, err := grow(need)
		if err != nil {
			return 0, fmt.Errorf("sgx: grow heap: %w", err)
		}
		e.heap = append(e.heap, added...)
		e.heapSize += len(added) * PageSize
	}
	if len(e.heap) == 0 {
		return 0, ErrOutOfEnclaveMemory
	}
	off := e.heapNext
	e.heapNext += n
	return e.heap[0].Vaddr + Vaddr(off), nil
}

// commitReserve moves n pages from the SGXv2 reserve into the committed
// heap (the EAUG path). Called with e.mu held by heapAlloc.
func (e *Enclave) commitReserve(n int) ([]*Page, error) {
	if n > len(e.reserve) {
		return nil, ErrOutOfEnclaveMemory
	}
	added := e.reserve[:n]
	e.reserve = e.reserve[n:]
	return added, nil
}

// heapReset releases all heap allocations (bump-allocator reset). The SDK
// has a real allocator; for the analyses in this repository only the page
// touch pattern matters, so a resettable bump allocator suffices.
func (e *Enclave) heapReset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.heapNext = 0
}

// Report is a local-attestation report binding an enclave measurement to a
// machine's report key.
type Report struct {
	EnclaveID   EnclaveID
	Measurement [32]byte
	MAC         [32]byte
}

// makeReport MACs the measurement with the platform report key (EREPORT).
func makeReport(e *Enclave, reportKey []byte) Report {
	mac := hmac.New(sha256.New, reportKey)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(e.ID))
	mac.Write(idb[:])
	mac.Write(e.measurement[:])
	r := Report{EnclaveID: e.ID, Measurement: e.measurement}
	copy(r.MAC[:], mac.Sum(nil))
	return r
}

// verifyReport checks a report against the platform report key (the
// verifying enclave's EGETKEY path in local attestation).
func verifyReport(r Report, reportKey []byte) bool {
	mac := hmac.New(sha256.New, reportKey)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(r.EnclaveID))
	mac.Write(idb[:])
	mac.Write(r.Measurement[:])
	return hmac.Equal(mac.Sum(nil), r.MAC[:])
}
