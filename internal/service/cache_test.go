package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpstream/internal/core"
)

// res builds a distinguishable cache value.
func res(tag int) *core.Result {
	return &core.Result{FmaxMHz: float64(tag)}
}

// TestCacheEvictionOrder pins LRU semantics under interleaved get/put:
// a get promotes its entry, so the least *recently used* — not the
// least recently inserted — is the one evicted.
func TestCacheEvictionOrder(t *testing.T) {
	c := newResultCache(3)
	c.put("a", res(1))
	c.put("b", res(2))
	c.put("c", res(3))

	// Touch "a": recency order (most to least) becomes a, c, b.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	// Inserting "d" must evict "b", the least recently used.
	c.put("d", res(4))
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted out of order", k)
		}
	}

	// Refreshing an existing key is an update, not an insert: no
	// eviction, and the value is replaced and promoted.
	c.put("c", res(33))
	c.put("e", res(5)) // evicts "a": recency is c, d, a after the gets above... a was read first
	st := c.stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if v, ok := c.get("c"); !ok || v.FmaxMHz != 33 {
		t.Errorf("refreshed value = %+v, %v", v, ok)
	}
}

// TestCacheStatsCounters: hits, misses and evictions are counted
// exactly, and stats snapshots do not disturb them.
func TestCacheStatsCounters(t *testing.T) {
	c := newResultCache(2)
	if _, ok := c.get("x"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("x", res(1))
	c.put("y", res(2))
	if _, ok := c.get("x"); !ok {
		t.Fatal("x missing")
	}
	if _, ok := c.get("x"); !ok {
		t.Fatal("x missing on second read")
	}
	c.put("z", res(3)) // evicts y (x was promoted)
	if _, ok := c.get("y"); ok {
		t.Fatal("y survived")
	}

	st := c.stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want hits 2 misses 2 evictions 1", st)
	}
	if st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats shape = %+v", st)
	}
	if again := c.stats(); again != st {
		t.Errorf("stats snapshot mutated counters: %+v vs %+v", again, st)
	}
}

// TestCacheDisabled: max <= 0 disables the cache entirely — every get
// misses, puts are dropped, and enabled() reports it so callers skip
// fingerprinting and single-flight.
func TestCacheDisabled(t *testing.T) {
	for _, max := range []int{0, -1, -512} {
		c := newResultCache(max)
		if c.enabled() {
			t.Errorf("cache with max %d reports enabled", max)
		}
		c.put("k", res(1))
		if _, ok := c.get("k"); ok {
			t.Errorf("disabled cache (max %d) stored a value", max)
		}
		st := c.stats()
		if st.Entries != 0 || st.Hits != 0 || st.Misses != 1 || st.Evictions != 0 {
			t.Errorf("disabled cache stats = %+v", st)
		}
	}
}

// TestCacheConcurrentAccess hammers one cache from many goroutines —
// meaningful under -race, and the counters must still reconcile:
// every operation is either a hit or a miss, and entries never exceed
// capacity.
func TestCacheConcurrentAccess(t *testing.T) {
	const workers, ops, capacity = 8, 200, 16
	c := newResultCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%32)
				if _, ok := c.get(k); !ok {
					c.put(k, res(i))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.stats()
	if st.Entries > capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses != workers*ops {
		t.Errorf("hits %d + misses %d != %d operations", st.Hits, st.Misses, workers*ops)
	}
}

// TestMemo pins the memo's cache and single-flight contract. Values
// below zero stand for stopped or partial results, which are returned
// but never cached.
func TestMemo(t *testing.T) {
	ctx := context.Background()
	value := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	// waitMisses blocks until the memo has counted n misses: a caller
	// that missed while another holds the flight is bound to wait on it.
	waitMisses := func(t *testing.T, m *memo[int], n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for m.stats().Misses < n {
			if time.Now().After(deadline) {
				t.Fatalf("misses = %d, want %d", m.stats().Misses, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// blockedLeader starts a leader computing "k" until release closes,
	// then returning v and err; the leader's own outcome arrives on the
	// returned channel once do returns.
	blockedLeader := func(t *testing.T, m *memo[int], v int, err error) (release chan struct{}, done <-chan error) {
		t.Helper()
		entered, release := make(chan struct{}), make(chan struct{})
		out := make(chan error, 1)
		go func() {
			_, _, err := m.do(ctx, "k", func() (int, error) {
				close(entered)
				<-release
				return v, err
			})
			out <- err
		}()
		<-entered
		return release, out
	}

	cases := []struct {
		name string
		max  int
		run  func(t *testing.T, m *memo[int])
	}{
		{"hit", 4, func(t *testing.T, m *memo[int]) {
			m.put("k", 7)
			v, hit, err := m.do(ctx, "k", func() (int, error) {
				t.Error("computed on a hit")
				return 0, nil
			})
			if v != 7 || !hit || err != nil {
				t.Errorf("do = %d, %v, %v; want 7, hit", v, hit, err)
			}
		}},
		{"miss computes and caches", 4, func(t *testing.T, m *memo[int]) {
			v, hit, err := m.do(ctx, "k", value(7))
			if v != 7 || hit || err != nil {
				t.Errorf("do = %d, %v, %v; want 7, miss", v, hit, err)
			}
			if v, ok := m.get("k"); !ok || v != 7 {
				t.Errorf("cache after miss = %d, %v", v, ok)
			}
		}},
		{"partial result never cached", 4, func(t *testing.T, m *memo[int]) {
			if v, _, _ := m.do(ctx, "k", value(-1)); v != -1 {
				t.Errorf("partial value = %d, want it returned to its caller", v)
			}
			if _, ok := m.get("k"); ok {
				t.Error("partial result was cached")
			}
		}},
		{"leader cancel hands off", 4, func(t *testing.T, m *memo[int]) {
			release, leader := blockedLeader(t, m, 0, context.Canceled)
			var computes atomic.Int32
			type answer struct {
				v   int
				hit bool
				err error
			}
			follower := make(chan answer, 1)
			go func() {
				v, hit, err := m.do(ctx, "k", func() (int, error) {
					computes.Add(1)
					return 9, nil
				})
				follower <- answer{v, hit, err}
			}()
			waitMisses(t, m, 3) // leader's lookup and re-check, follower's lookup
			close(release)
			if err := <-leader; !errors.Is(err, context.Canceled) {
				t.Errorf("leader err = %v, want canceled", err)
			}
			if a := <-follower; a.v != 9 || a.hit || a.err != nil || computes.Load() != 1 {
				t.Errorf("follower = %+v after %d computes; want it to take over once", a, computes.Load())
			}
			if v, ok := m.get("k"); !ok || v != 9 {
				t.Errorf("cache = %d, %v; want the promoted follower's value", v, ok)
			}
		}},
		{"follower detaches", 4, func(t *testing.T, m *memo[int]) {
			release, leader := blockedLeader(t, m, 5, nil)
			fctx, cancel := context.WithCancel(ctx)
			follower := make(chan error, 1)
			go func() {
				_, _, err := m.do(fctx, "k", func() (int, error) {
					t.Error("detaching follower computed")
					return 0, nil
				})
				follower <- err
			}()
			waitMisses(t, m, 3)
			cancel()
			// The follower returns while the leader is still computing.
			if err := <-follower; !errors.Is(err, context.Canceled) {
				t.Errorf("follower err = %v, want canceled", err)
			}
			close(release)
			if err := <-leader; err != nil {
				t.Errorf("leader err = %v", err)
			}
			if v, ok := m.get("k"); !ok || v != 5 {
				t.Errorf("cache = %d, %v; want the leader's value", v, ok)
			}
		}},
		{"solo skips the flight", 4, func(t *testing.T, m *memo[int]) {
			// A solo caller does not wait on the blocked leader: it
			// computes and caches its own answer.
			release, leader := blockedLeader(t, m, 5, nil)
			if v, hit, err := m.solo("k", value(8)); v != 8 || hit || err != nil {
				t.Errorf("solo = %d, %v, %v; want 8, miss", v, hit, err)
			}
			if v, hit, _ := m.solo("k", value(0)); v != 8 || !hit {
				t.Errorf("repeat solo = %d, %v; want the cached 8", v, hit)
			}
			close(release)
			if err := <-leader; err != nil {
				t.Errorf("leader err = %v", err)
			}
		}},
		{"disabled runs in parallel without dedup", -1, func(t *testing.T, m *memo[int]) {
			// Each computation waits for the other to start: with dedup
			// the second caller would wait on the first and time out.
			var started sync.WaitGroup
			started.Add(2)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, hit, err := m.do(ctx, "k", func() (int, error) {
						started.Done()
						ok := make(chan struct{})
						go func() { started.Wait(); close(ok) }()
						select {
						case <-ok:
						case <-time.After(10 * time.Second):
							t.Error("identical computations did not run in parallel")
						}
						return 3, nil
					})
					if v != 3 || hit || err != nil {
						t.Errorf("do = %d, %v, %v; want 3, miss", v, hit, err)
					}
				}()
			}
			wg.Wait()
			if st := m.stats(); st != (CacheStats{Capacity: -1}) {
				t.Errorf("disabled memo recorded activity: %+v", st)
			}
		}},
		{"counters", 2, func(t *testing.T, m *memo[int]) {
			m.do(ctx, "a", value(1)) // 2 misses: lookup and the leader's re-check
			m.do(ctx, "a", value(1)) // hit, promotes a
			m.do(ctx, "b", value(2)) // 2 misses
			m.do(ctx, "c", value(3)) // 2 misses, evicts a
			want := CacheStats{Entries: 2, Capacity: 2, Hits: 1, Misses: 6, Evictions: 1}
			if st := m.stats(); st != want {
				t.Errorf("stats = %+v, want %+v", st, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newMemo(tc.max, func(v int) bool { return v >= 0 }))
		})
	}
}
