package service

import (
	"container/list"
	"context"
	"sync"

	"mpstream/internal/core"
	"mpstream/internal/dse/search"
	"mpstream/internal/surface"
)

// lruCache is a thread-safe LRU keyed by canonical fingerprint,
// parameterized over the cached value. The simulator is deterministic,
// so a cached value is exactly what a re-execution would produce;
// entries are shared read-only between the cache and responses and
// must not be mutated.
type lruCache[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry[V any] struct {
	key string
	val V
}

// memo is an lruCache with single-flight: concurrent callers asking for
// one key while it is being computed wait for a single leader instead
// of computing it again. The server keeps three: run results (also
// consulted per grid point by sweeps and per evaluation by optimizer
// searches), whole optimizer searches, and whole surfaces.
type memo[V any] struct {
	*lruCache[V]
	// complete reports whether a computed value may be cached; nil
	// means every value may. Stopped and partial results go back to
	// their caller but never into the cache.
	complete func(V) bool

	flightMu sync.Mutex
	flight   map[string]chan struct{} // key -> closed when its leader returns
}

// newResultCache builds the run-result memo holding up to max entries;
// max <= 0 disables caching entirely (every lookup misses, puts are
// dropped) and with it single-flight.
func newResultCache(max int) *memo[*core.Result] { return newMemo[*core.Result](max, nil) }

// newOptimizeCache builds the whole-search memo with the same
// max/disable semantics; stopped searches are not cached.
func newOptimizeCache(max int) *memo[*search.Result] {
	return newMemo(max, func(r *search.Result) bool { return r.Stopped == "" })
}

// newSurfaceCache builds the whole-surface memo with the same
// max/disable semantics; partial ladders are not cached.
func newSurfaceCache(max int) *memo[*surface.Surface] {
	return newMemo(max, func(s *surface.Surface) bool { return s.Stopped == "" })
}

func newMemo[V any](max int, complete func(V) bool) *memo[V] {
	return &memo[V]{lruCache: newLRU[V](max), complete: complete, flight: make(map[string]chan struct{})}
}

// do answers key from the cache (hit true) or by running compute.
// Concurrent callers of one key are single-flighted: one leader
// computes and the followers wait, then read the cache. A follower
// whose ctx ends detaches with ctx's error; the leader keeps computing
// for everyone else. A leader whose value is an error or incomplete
// caches nothing, so a woken follower finds the cache cold and takes
// over — followers are never wedged behind a dead leader. With the
// cache disabled, or on a nil memo (how checks bypass it), every caller
// computes: dedup only pays off when followers can read the leader's
// result.
func (m *memo[V]) do(ctx context.Context, key string, compute func() (V, error)) (v V, hit bool, err error) {
	if m == nil || !m.enabled() {
		v, err = compute()
		return v, false, err
	}
	for {
		if v, ok := m.get(key); ok {
			return v, true, nil
		}
		m.flightMu.Lock()
		ch, following := m.flight[key]
		if !following {
			ch = make(chan struct{})
			m.flight[key] = ch
		}
		m.flightMu.Unlock()
		if !following {
			defer m.release(key, ch)
			return m.lead(key, compute)
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
}

// solo answers key from the cache or by running compute, outside
// single-flight: it neither waits on a leader nor makes anyone wait on
// it. Work a coordinator hands to its fleet goes this way, because the
// coordinator may itself lead that key's flight — it is listed in its
// own fleet, or two coordinators list each other — and following that
// flight would wait on itself.
func (m *memo[V]) solo(key string, compute func() (V, error)) (V, bool, error) {
	if m == nil || !m.enabled() {
		v, err := compute()
		return v, false, err
	}
	return m.lead(key, compute)
}

// lead answers key from the cache or by running compute, and caches a
// complete value.
func (m *memo[V]) lead(key string, compute func() (V, error)) (V, bool, error) {
	// As a flight's leader: the previous leader may have filled the cache
	// between our miss and the claim; re-check so a promoted follower
	// never recomputes.
	if v, ok := m.get(key); ok {
		return v, true, nil
	}
	v, err := compute()
	if err == nil && (m.complete == nil || m.complete(v)) {
		m.put(key, v)
	}
	return v, false, err
}

// release ends key's flight and wakes its followers.
func (m *memo[V]) release(key string, ch chan struct{}) {
	m.flightMu.Lock()
	delete(m.flight, key)
	m.flightMu.Unlock()
	close(ch)
}

func newLRU[V any](max int) *lruCache[V] {
	return &lruCache[V]{
		max:   max,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// enabled reports whether the cache stores anything at all.
func (c *lruCache[V]) enabled() bool { return c.max > 0 }

// get returns the cached value for key, promoting it to most recent.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// put inserts or refreshes key, evicting the least recently used entry
// when over capacity.
func (c *lruCache[V]) put(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry[V]).key)
		c.evictions++
	}
}

// CacheStats is the cache telemetry /v1/healthz reports.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// stats snapshots the counters.
func (c *lruCache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
