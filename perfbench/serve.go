package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mpstream/internal/obs"
	"mpstream/internal/service"
)

// liveServer is a service.Server listening on loopback.
type liveServer struct {
	svc  *service.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startServer builds a service.Server, serves it on a loopback port and
// returns once GET /v1/healthz answers.
func startServer(opts service.Options) (*liveServer, error) {
	svc := service.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	l := &liveServer{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.http.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	resp, err := http.Get(l.url + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// Close stops the listener, waits for the serve loop to return, then
// stops the service's workers.
func (l *liveServer) Close() {
	_ = l.http.Close()
	<-l.done
	l.svc.Close()
}

// jobView is the part of a job view the benchmark reads.
type jobView struct {
	ID       string            `json:"id"`
	Status   string            `json:"status"`
	Trace    string            `json:"trace"`
	Created  time.Time         `json:"created"`
	Started  time.Time         `json:"started"`
	Finished time.Time         `json:"finished"`
	Cached   bool              `json:"cached"`
	Error    string            `json:"error"`
	Result   json.RawMessage   `json:"result"`
	Sweep    json.RawMessage   `json:"sweep"`
	Surface  json.RawMessage   `json:"surface"`
	Timing   *obs.TraceSummary `json:"timing"`
}

// spanMS returns the duration of the named step on the job's critical
// path, or 0.
func (v *jobView) spanMS(name string) float64 {
	if v.Timing == nil {
		return 0
	}
	for _, st := range v.Timing.CriticalPath {
		if st.Name == name {
			return st.DurMS
		}
	}
	return 0
}

// exchange is one synchronous request and its answer.
type exchange struct {
	rtt  time.Duration
	size int
	code int
	view jobView
	err  error
}

// post sends body to url and decodes the job view it answers with.
func post(ctx context.Context, client *http.Client, url string, body []byte) exchange {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return exchange{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex := exchange{rtt: time.Since(t0), size: len(data), code: resp.StatusCode, err: err}
	if err != nil {
		return ex
	}
	var env struct {
		Job jobView `json:"job"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		ex.err = fmt.Errorf("decode response: %w", err)
		return ex
	}
	ex.view = env.Job
	if ex.code != http.StatusOK {
		ex.err = fmt.Errorf("status %d: %s", ex.code, data)
	} else if env.Job.Status != "done" {
		ex.err = fmt.Errorf("job %s ended %s: %s", env.Job.ID, env.Job.Status, env.Job.Error)
	}
	return ex
}

// serviceMetrics reports the service-layer metrics of a set of answered
// jobs and returns how many of them carried a result.
func serviceMetrics(exs []exchange, m map[string]float64) int {
	var queue, exec, overhead []float64
	var hits, size float64
	for _, ex := range exs {
		if ex.err != nil {
			continue
		}
		v := ex.view
		queue = append(queue, ms(v.Started.Sub(v.Created)))
		exec = append(exec, ms(v.Finished.Sub(v.Started)))
		overhead = append(overhead, ms(ex.rtt-v.Finished.Sub(v.Created)))
		size += float64(ex.size)
		if v.Cached {
			hits++
		}
	}
	n := float64(len(queue))
	m["service.queue_wait_ms.p50"] = median(queue)
	m["service.queue_wait_ms.p99"] = percentile(queue, 99)
	m["service.exec_ms.p50"] = median(exec)
	m["service.http_overhead_ms.p50"] = median(overhead)
	m["service.cache_hit_ratio"] = ratio(hits, n)
	m["service.resp_kb"] = ratio(size/1024, n)
	return len(queue)
}
