package cluster

import (
	"sort"
	"sync"
	"time"
)

// DefaultHeartbeatTTL is how long a registration survives without a
// heartbeat before the worker counts as lost.
const DefaultHeartbeatTTL = 10 * time.Second

// workerState is one registry entry; all fields are guarded by the
// registry mutex.
type workerState struct {
	info       WorkerInfo
	firstSeen  time.Time
	lastSeen   time.Time
	inflight   int
	shardsDone uint64
	failures   uint64
}

// registry tracks the worker fleet: registrations, heartbeats,
// liveness, and the in-flight load the scheduler balances against.
type registry struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time // injectable clock for liveness tests

	workers map[string]*workerState
}

func newRegistry(ttl time.Duration, now func() time.Time) *registry {
	if ttl <= 0 {
		ttl = DefaultHeartbeatTTL
	}
	if now == nil {
		now = time.Now
	}
	return &registry{ttl: ttl, now: now, workers: make(map[string]*workerState)}
}

// upsert registers a worker or refreshes an existing registration
// (same ID), resetting its liveness clock. Counters survive
// re-registration: a restarted worker keeps its history.
func (r *registry) upsert(info WorkerInfo) {
	if info.Capacity < 1 {
		info.Capacity = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[info.ID]
	if !ok {
		w = &workerState{firstSeen: r.now()}
		r.workers[info.ID] = w
	}
	w.info = info
	w.lastSeen = r.now()
}

// heartbeat refreshes a worker's liveness clock; false means the
// worker is unknown (coordinator restarted or evicted it) and must
// re-register.
func (r *registry) heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return false
	}
	w.lastSeen = r.now()
	return true
}

// markDown zeroes a worker's liveness clock so the scheduler stops
// picking it until its next heartbeat — the coordinator's reaction to
// a connection-level failure.
func (r *registry) markDown(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[id]; ok {
		w.lastSeen = time.Time{}
	}
}

// aliveLocked reports liveness of one entry. Requires r.mu held.
func (r *registry) aliveLocked(w *workerState) bool {
	return !w.lastSeen.IsZero() && r.now().Sub(w.lastSeen) <= r.ttl
}

// isAlive reports one worker's liveness.
func (r *registry) isAlive(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	return ok && r.aliveLocked(w)
}

// counts tallies alive and total registered workers.
func (r *registry) counts() (alive, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		total++
		if r.aliveLocked(w) {
			alive++
		}
	}
	return alive, total
}

// snapshot returns every registry entry, sorted by worker ID for
// stable telemetry output.
func (r *registry) snapshot() []WorkerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerView, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerView{
			WorkerInfo: w.info,
			Alive:      r.aliveLocked(w),
			FirstSeen:  w.firstSeen,
			LastSeen:   w.lastSeen,
			Inflight:   w.inflight,
			ShardsDone: w.shardsDone,
			Failures:   w.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// aliveSlots sums the capacity of alive workers serving target
// ("" = any target) — the denominator the coordinator sizes shard
// counts against.
func (r *registry) aliveSlots(target string) (workers, slots int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if !r.aliveLocked(w) || !serves(w.info, target) {
			continue
		}
		workers++
		slots += w.info.Capacity
	}
	return workers, slots
}

// serves reports whether the worker advertises target ("" matches any
// worker; a worker advertising no targets matches nothing).
func serves(info WorkerInfo, target string) bool {
	if target == "" {
		return true
	}
	for _, t := range info.Targets {
		if t == target {
			return true
		}
	}
	return false
}

// acquireSlot picks the best alive worker serving target outside
// excluded that has a free capacity slot, and reserves the slot. The
// capacity bound is the "bounded" half of the pull-based queue: the
// dispatcher hands out at most Capacity shards per worker and keeps the
// rest queued. Serving the target is a hard requirement, not a
// preference: a worker that does not advertise the target rejects its
// shard with a validation error, so dispatching there can only waste
// an attempt and smear a healthy worker's failure record. Among the
// eligible, the least relative load (inflight/capacity) wins, then the
// fewest failures, then ID order for determinism. idleOnly further
// restricts the pick to completely idle workers (inflight == 0);
// speculation uses it so duplicate attempts only ever consume capacity
// nothing else wants. ok is false when no worker qualifies.
func (r *registry) acquireSlot(target string, excluded map[string]bool, idleOnly bool) (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *workerState
	for _, id := range r.sortedIDsLocked() {
		w := r.workers[id]
		if excluded[id] || !r.aliveLocked(w) || !serves(w.info, target) {
			continue
		}
		if w.inflight >= w.info.Capacity || (idleOnly && w.inflight > 0) {
			continue
		}
		if best == nil || betterPick(w, best) {
			best = w
		}
	}
	if best == nil {
		return WorkerInfo{}, false
	}
	best.inflight++
	return best.info, true
}

// hasSlot reports whether acquireSlot would succeed, without reserving
// anything — the dispatcher's probe for distinguishing "no capacity"
// from "capacity exists but this shard's exclusions block it".
func (r *registry) hasSlot(target string, excluded map[string]bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if excluded[w.info.ID] || !r.aliveLocked(w) || !serves(w.info, target) {
			continue
		}
		if w.inflight < w.info.Capacity {
			return true
		}
	}
	return false
}

// betterPick orders scheduler candidates: relative load first
// (cross-multiplied to avoid float drift), then failure count.
func betterPick(w, best *workerState) bool {
	// w.inflight/w.cap < best.inflight/best.cap
	lw := w.inflight * best.info.Capacity
	lb := best.inflight * w.info.Capacity
	if lw != lb {
		return lw < lb
	}
	return w.failures < best.failures
}

// sortedIDsLocked returns worker IDs in stable order. Requires r.mu
// held.
func (r *registry) sortedIDsLocked() []string {
	ids := make([]string, 0, len(r.workers))
	for id := range r.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// release frees a slot reserved by acquireSlot and records the
// attempt's outcome.
func (r *registry) release(id string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, found := r.workers[id]
	if !found {
		return
	}
	if w.inflight > 0 {
		w.inflight--
	}
	if ok {
		w.shardsDone++
	} else {
		w.failures++
	}
}

// releaseOnly frees a slot reserved by acquireSlot without recording
// an outcome — used for attempts that lost a speculation race, which
// are neither a completion nor the worker's fault.
func (r *registry) releaseOnly(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, found := r.workers[id]; found && w.inflight > 0 {
		w.inflight--
	}
}
