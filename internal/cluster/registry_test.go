package cluster

import (
	"testing"
	"time"
)

// fakeClock is an adjustable registry clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testRegistry(ttl time.Duration) (*registry, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return newRegistry(ttl, clk.now), clk
}

func TestRegistryLiveness(t *testing.T) {
	r, clk := testRegistry(10 * time.Second)
	r.upsert(WorkerInfo{ID: "a", Addr: "http://a", Targets: []string{"cpu"}, Capacity: 2})

	if alive, total := r.counts(); alive != 1 || total != 1 {
		t.Fatalf("counts = %d/%d, want 1/1", alive, total)
	}

	// Inside the TTL the worker stays alive; past it, it is lost.
	clk.advance(9 * time.Second)
	if !r.isAlive("a") {
		t.Error("worker lost before its TTL")
	}
	clk.advance(2 * time.Second)
	if r.isAlive("a") {
		t.Error("worker alive past its TTL")
	}
	if alive, total := r.counts(); alive != 0 || total != 1 {
		t.Errorf("counts after expiry = %d/%d, want 0/1", alive, total)
	}

	// A heartbeat resurrects it; markDown kills it immediately.
	if !r.heartbeat("a") {
		t.Fatal("heartbeat for a registered worker reported unknown")
	}
	if !r.isAlive("a") {
		t.Error("worker dead after heartbeat")
	}
	r.markDown("a")
	if r.isAlive("a") {
		t.Error("worker alive after markDown")
	}
	if r.heartbeat("ghost") {
		t.Error("heartbeat for an unknown worker reported known")
	}
}

func TestRegistryAcquireLocalityAndLoad(t *testing.T) {
	r, _ := testRegistry(time.Minute)
	r.upsert(WorkerInfo{ID: "cpu-1", Addr: "http://c1", Targets: []string{"cpu"}, Capacity: 4})
	r.upsert(WorkerInfo{ID: "gpu-1", Addr: "http://g1", Targets: []string{"gpu"}, Capacity: 8})

	// Serving the target is a hard requirement: the cpu worker takes
	// cpu shards even though the gpu worker has far more free capacity.
	// cpu-1 keeps free slots throughout, so only the target and the
	// exclusions decide the picks.
	w, ok := r.acquireSlot("cpu", nil, false)
	if !ok || w.ID != "cpu-1" {
		t.Fatalf("acquireSlot(cpu) = %+v, %v", w, ok)
	}
	w2, ok := r.acquireSlot("cpu", nil, false)
	if !ok || w2.ID != "cpu-1" {
		t.Fatalf("second acquireSlot(cpu) = %+v", w2)
	}
	// A worker that does not advertise the target is never a fallback —
	// it would just reject the shard with a validation error.
	if w3, ok := r.acquireSlot("cpu", map[string]bool{"cpu-1": true}, false); ok {
		t.Fatalf("acquireSlot(cpu, exclude local) handed out non-serving worker %+v", w3)
	}
	// The empty target matches any worker.
	w4, ok := r.acquireSlot("", map[string]bool{"cpu-1": true}, false)
	if !ok || w4.ID != "gpu-1" {
		t.Fatalf("acquireSlot(any) = %+v, %v", w4, ok)
	}
	r.release("cpu-1", true)
	r.release("cpu-1", true)
	r.release("gpu-1", false)

	snap := r.snapshot()
	if len(snap) != 2 || snap[0].ID != "cpu-1" || snap[1].ID != "gpu-1" {
		t.Fatalf("snapshot order = %+v", snap)
	}
	if snap[0].ShardsDone != 2 || snap[0].Inflight != 0 {
		t.Errorf("cpu-1 view = %+v", snap[0])
	}
	if snap[1].Failures != 1 {
		t.Errorf("gpu-1 view = %+v", snap[1])
	}
}

func TestRegistryAcquireBalancesRelativeLoad(t *testing.T) {
	r, _ := testRegistry(time.Minute)
	r.upsert(WorkerInfo{ID: "big", Addr: "http://b", Targets: []string{"cpu"}, Capacity: 8})
	r.upsert(WorkerInfo{ID: "small", Addr: "http://s", Targets: []string{"cpu"}, Capacity: 2})

	// Five acquisitions, none filling a worker: the 8-slot worker should
	// absorb four, the 2-slot worker one — relative load, not round
	// robin.
	got := map[string]int{}
	for i := 0; i < 5; i++ {
		w, ok := r.acquireSlot("cpu", nil, false)
		if !ok {
			t.Fatal("acquireSlot failed with free capacity")
		}
		got[w.ID]++
	}
	if got["big"] != 4 || got["small"] != 1 {
		t.Errorf("distribution = %v, want big:4 small:1", got)
	}

	// No alive workers at all: acquireSlot reports failure, although both
	// still have free slots.
	r.markDown("big")
	r.markDown("small")
	if _, ok := r.acquireSlot("cpu", nil, false); ok {
		t.Error("acquireSlot succeeded with every worker down")
	}
}

func TestRegistryUpsertKeepsHistory(t *testing.T) {
	r, _ := testRegistry(time.Minute)
	r.upsert(WorkerInfo{ID: "a", Addr: "http://a", Capacity: 2})
	w, _ := r.acquireSlot("", nil, false)
	r.release(w.ID, true)
	// A restarted worker re-registers under its ID: liveness resets,
	// history survives.
	r.markDown("a")
	r.upsert(WorkerInfo{ID: "a", Addr: "http://a2", Capacity: 3})
	snap := r.snapshot()
	if len(snap) != 1 || !snap[0].Alive || snap[0].Addr != "http://a2" || snap[0].ShardsDone != 1 {
		t.Errorf("re-registered view = %+v", snap[0])
	}
	// Capacity is clamped to at least one slot.
	r.upsert(WorkerInfo{ID: "z", Addr: "http://z"})
	for _, v := range r.snapshot() {
		if v.ID == "z" && v.Capacity != 1 {
			t.Errorf("zero capacity not clamped: %+v", v)
		}
	}
}
