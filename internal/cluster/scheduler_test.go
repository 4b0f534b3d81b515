package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
)

// TestCancelDuringShardSubmit: a fleet cancel that lands while a shard
// submission is still in flight must still reach the worker job the
// submission created, instead of leaving it to run as an orphan.
func TestCancelDuringShardSubmit(t *testing.T) {
	submitted := make(chan struct{})
	release := make(chan struct{})
	deleted := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/shard/sweep", func(w http.ResponseWriter, r *http.Request) {
		// The worker has queued the shard; its answer is slow to leave.
		close(submitted)
		<-release
		w.Write([]byte(`{"job":{"id":"j1","status":"queued"}}`))
	})
	mux.HandleFunc("DELETE /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		close(deleted)
		w.Write([]byte(`{}`))
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"job":{"id":"j1","status":"canceled"}}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Options{HeartbeatTTL: time.Hour, DisableSpeculation: true})
	defer c.Close()
	c.Register(WorkerInfo{ID: "w", Addr: ts.URL, Targets: []string{"cpu"}, Capacity: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		spec := SweepSpec{Target: "cpu", Base: core.DefaultConfig(), Space: dse.Space{VecWidths: []int{1}}, Op: kernel.Copy}
		c.Sweep(ctx, spec, FleetHooks{})
	}()
	<-submitted
	cancel()
	// Give an abandoned request time to be torn down before the worker
	// answers.
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case <-deleted:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker job created by the in-flight submission was never canceled")
	}
	<-done
}
