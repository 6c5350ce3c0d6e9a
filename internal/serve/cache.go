package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	apiv1 "sgxperf/api/v1"
)

// defaultCacheCapacity bounds the artifact cache when Options leaves
// CacheCapacity zero. Entries are whole analysis artifacts (reports and
// lint reports), so a few hundred is plenty for many concurrently served
// traces.
const defaultCacheCapacity = 512

// ArtifactCache is the server's content-addressed artifact store: an
// LRU map from artifact key (derived from trace chunk hashes, see
// server.go) to the computed artifact, with single-flight coalescing so
// concurrent requests for the same missing key run one computation and
// share its result.
//
// Artifacts stored here are shared between requests and must be treated
// as immutable by every reader.
type ArtifactCache struct {
	capacity int

	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*flight
	bytes    uint64 // estimated resident artifact bytes (see size.go)

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// cacheEntry is one resident artifact (the lru list's element value).
type cacheEntry struct {
	key   string
	val   any
	bytes uint64
}

// flight is one in-progress computation; waiters block on done and then
// read val/err, which are written exactly once before done is closed.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewArtifactCache returns a cache bounded to capacity entries
// (capacity <= 0 selects the default).
func NewArtifactCache(capacity int) *ArtifactCache {
	if capacity <= 0 {
		capacity = defaultCacheCapacity
	}
	return &ArtifactCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
}

// GetOrCompute returns the cached artifact for key, or runs compute,
// caches its result and returns it. Concurrent callers with the same
// missing key coalesce onto one compute call. hit reports whether the
// value came from the cache. Errors are returned to every coalesced
// caller and are never cached, so a later request retries.
func (c *ArtifactCache) GetOrCompute(key string, compute func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = compute()

	var size uint64
	if f.err == nil {
		size = artifactBytes(f.val) // priced outside the lock
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		el := c.lru.PushFront(&cacheEntry{key: key, val: f.val, bytes: size})
		c.entries[key] = el
		c.bytes += size
		for c.lru.Len() > c.capacity {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			ent := oldest.Value.(*cacheEntry)
			delete(c.entries, ent.key)
			c.bytes -= ent.bytes
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Len returns the number of resident artifacts.
func (c *ArtifactCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the estimated resident size of every cached artifact.
func (c *ArtifactCache) Bytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Metrics returns the cache's wire-form counters.
func (c *ArtifactCache) Metrics() apiv1.CacheMetrics {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	return apiv1.CacheMetrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Evictions: c.evictions.Load(),
	}
}
