package service_test

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/obs"
	"mpstream/internal/obs/obstest"
	"mpstream/internal/service"
)

// getTrace fetches and decodes a job's merged span tree.
func getTrace(t *testing.T, e *testEnv, id string) obs.TraceView {
	t.Helper()
	resp, data := e.get(t, "/v1/jobs/"+id+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, data)
	}
	var tv obs.TraceView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatalf("decode trace: %v\n%s", err, data)
	}
	return tv
}

// flattenTrace walks the span tree depth-first into a flat list.
func flattenTrace(tv obs.TraceView) []obs.Span {
	var out []obs.Span
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		out = append(out, n.Span)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tv.Roots {
		walk(r)
	}
	return out
}

// TestJobTraceSingleRun: a plain run job exposes a span tree rooted at
// "job" whose children cover at least 95% of the job's wall clock, a
// nonempty critical path, and a Chrome-trace rendering of the same
// spans.
func TestJobTraceSingleRun(t *testing.T) {
	e := newEnv(t, service.Options{})
	cfg := smallConfig()
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("run job = %+v", job)
	}

	tv := getTrace(t, e, job.ID)
	if tv.Job != job.ID || tv.Trace == "" {
		t.Errorf("trace view ids = %q/%q, want job %q", tv.Job, tv.Trace, job.ID)
	}
	if len(tv.Roots) != 1 || tv.Roots[0].Name != "job" {
		t.Fatalf("trace roots = %+v, want a single job root", tv.Roots)
	}
	if tv.SpanCount < 2 {
		t.Errorf("span_count = %d, want >= 2 (job + lifecycle)", tv.SpanCount)
	}
	if tv.Coverage < 0.95 {
		t.Errorf("coverage = %.3f, want >= 0.95 of the job wall clock", tv.Coverage)
	}
	if len(tv.CriticalPath) == 0 {
		t.Error("critical_path empty")
	}
	names := map[string]bool{}
	for _, sp := range flattenTrace(tv) {
		names[sp.Name] = true
	}
	for _, want := range []string{"job", "job.run", "run.eval"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %v)", want, names)
		}
	}

	// The same tree renders as Chrome trace-event JSON.
	resp, data = e.get(t, "/v1/jobs/"+job.ID+"/trace?format=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace status %d: %s", resp.StatusCode, data)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("chrome trace does not parse: %v\n%s", err, data)
	}
	complete := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != tv.SpanCount {
		t.Errorf("chrome export has %d complete events, JSON tree has %d spans", complete, tv.SpanCount)
	}

	// Unknown jobs 404.
	resp, _ = e.get(t, "/v1/jobs/no-such-job/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestJobTraceDisabled: with metrics (and therefore spans) off, the
// trace endpoint reports not-found rather than an empty tree.
func TestJobTraceDisabled(t *testing.T) {
	e := newEnv(t, service.Options{DisableMetrics: true})
	cfg := smallConfig()
	resp, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	resp, _ = e.get(t, "/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace with tracing disabled = %d, want 404", resp.StatusCode)
	}
}

// TestErrorResponsesEchoTrace: a caller-supplied X-Mpstream-Trace id
// comes back on error responses (4xx included), so failed requests can
// be correlated with server logs.
func TestErrorResponsesEchoTrace(t *testing.T) {
	e := newEnv(t, service.Options{})
	const trace = "deadbeefcafe0001"

	// 404 on an unknown job.
	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Errorf("404 response trace header = %q, want %q", got, trace)
	}

	// 415 on a refused content type.
	req, err = http.NewRequest(http.MethodPost, e.ts.URL+"/v1/run", strings.NewReader(`{"target":"cpu"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(obs.TraceHeader, trace)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain run = %d, want 415", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Errorf("415 response trace header = %q, want %q", got, trace)
	}
}

// TestFleetSweepTrace: a sweep sharded across two workers assembles
// one tree on the coordinator containing worker-origin spans from both
// workers, covering the job's whole wall clock. Run with -race.
func TestFleetSweepTrace(t *testing.T) {
	fe := newFleetEnv(t, 2, nil)
	resp, data := fe.post(t, "/v1/sweep", sweepReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("fleet sweep job = %+v", job)
	}

	tv := getTrace(t, fe.testEnv, job.ID)
	got := map[string]bool{}
	for _, o := range tv.Origins {
		got[o] = true
	}
	for _, want := range []string{"coordinator", "w0", "w1"} {
		if !got[want] {
			t.Errorf("trace origins = %v, missing %q", tv.Origins, want)
		}
	}
	if tv.Coverage < 0.95 {
		t.Errorf("fleet trace coverage = %.3f, want >= 0.95", tv.Coverage)
	}
	shardSpans, pointSpans := 0, 0
	for _, sp := range flattenTrace(tv) {
		switch sp.Name {
		case "shard.execute":
			shardSpans++
			if sp.Attrs["worker"] == "" {
				t.Errorf("shard.execute span without worker attr: %+v", sp)
			}
		case "sweep.point":
			pointSpans++
		}
	}
	if shardSpans == 0 {
		t.Error("no shard.execute spans in the fleet trace")
	}
	if pointSpans == 0 {
		t.Error("no worker-side sweep.point spans made it back to the coordinator")
	}

	// The Chrome export keeps the origins as separate process rows.
	resp, data = fe.get(t, "/v1/jobs/"+job.ID+"/trace?format=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace status %d", resp.StatusCode)
	}
	for _, row := range []string{`"name":"w0"`, `"name":"w1"`} {
		if !strings.Contains(string(data), row) {
			t.Errorf("chrome export missing process row %s", row)
		}
	}
}

// TestFleetTraceKeepsRetriedShardAttempts: killing a worker mid-shard
// leaves both attempts in the merged tree — the lost attempt tagged
// lost=true and the retry that completed elsewhere — and the job root
// still brackets every span. Run with -race.
func TestFleetTraceKeepsRetriedShardAttempts(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	started := make(chan struct{})
	var startOnce sync.Once

	fe := newFleetEnv(t, 2, func(i int) service.Options {
		if i != 1 {
			return service.Options{}
		}
		return service.Options{NewDevice: func(id string) (device.Device, error) {
			d, err := targets.ByID(id)
			if err != nil {
				return nil, err
			}
			return signalGateDevice{
				Device: d,
				signal: func() { startOnce.Do(func() { close(started) }) },
				gate:   gate,
			}, nil
		}}
	})

	req := sweepReq()
	resp, data := fe.post(t, "/v1/sweep", service.SweepRequest{
		Target: req.Target, Base: req.Base, Op: req.Op, Space: req.Space, Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker 1 never started a shard")
	}
	fe.workers[1].ts.Listener.Close()
	fe.workers[1].ts.CloseClientConnections()

	final := fe.pollJob(t, job.ID)
	openGate()
	if final.Status != service.StatusDone {
		t.Fatalf("fleet sweep after worker kill = %s (error %q)", final.Status, final.Error)
	}

	tv := getTrace(t, fe.testEnv, job.ID)
	spans := flattenTrace(tv)

	// Group shard.execute attempts by shard index.
	attempts := map[string][]obs.Span{}
	for _, sp := range spans {
		if sp.Name == "shard.execute" {
			attempts[sp.Attrs["shard"]] = append(attempts[sp.Attrs["shard"]], sp)
		}
	}
	retried := false
	for shard, as := range attempts {
		if len(as) < 2 {
			continue
		}
		lost, done := false, false
		for _, sp := range as {
			if sp.Attrs["lost"] == "true" {
				lost = true
			}
			if sp.Attrs["state"] == "done" {
				done = true
			}
		}
		if lost && done {
			retried = true
		} else {
			t.Errorf("shard %s has %d attempts but states %+v, want one lost and one done", shard, len(as), as)
		}
	}
	if !retried {
		t.Fatalf("no shard kept both its lost attempt and its completed retry; attempts = %+v", attempts)
	}

	// The merged tree spans the whole job interval: the root brackets
	// every span (the clock is shared — workers are in-process).
	if len(tv.Roots) != 1 {
		t.Fatalf("trace roots = %d, want 1", len(tv.Roots))
	}
	root := tv.Roots[0].Span
	for _, sp := range spans {
		if sp.Start.Before(root.Start) || sp.End().After(root.End()) {
			t.Errorf("span %s [%v, %v] escapes the job root [%v, %v]",
				sp.Name, sp.Start, sp.End(), root.Start, root.End())
		}
	}
}

// TestClusterMetricsFederation: the coordinator scrapes live workers
// and re-renders one exposition with per-worker labels, its own series
// included, and a synthesized up gauge. Run with -race.
func TestClusterMetricsFederation(t *testing.T) {
	fe := newFleetEnv(t, 2, nil)
	// Populate worker metrics with real work first.
	resp, data := fe.post(t, "/v1/sweep", sweepReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", resp.StatusCode, data)
	}

	resp, data = fe.get(t, "/v1/cluster/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster metrics status %d: %s", resp.StatusCode, data)
	}
	body := string(data)
	for _, want := range []string{
		`worker="coordinator"`,
		`worker="w0"`,
		`worker="w1"`,
		`mpstream_federation_up{worker="w0"} 1`,
		`mpstream_federation_up{worker="w1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("federated exposition missing %s", want)
		}
	}
	obstest.ValidateExposition(t, body)

	// Federation is a coordinator affordance; plain servers 404.
	plain := newEnv(t, service.Options{})
	resp, _ = plain.get(t, "/v1/cluster/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cluster metrics on plain server = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsGzip: /v1/metrics honors Accept-Encoding: gzip and stays
// identity-encoded for clients that do not ask.
func TestMetricsGzip(t *testing.T) {
	e := newEnv(t, service.Options{})

	// DisableCompression stops the transport from transparently
	// unwrapping the response, so the test sees the wire encoding.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", got)
	}
	if !strings.Contains(resp.Header.Get("Vary"), "Accept-Encoding") {
		t.Error("gzip response missing Vary: Accept-Encoding")
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("body is not gzip: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(plain), "mpstream_") {
		t.Errorf("gunzipped metrics look wrong:\n%s", plain)
	}
	obstest.ValidateExposition(t, string(plain))

	// No Accept-Encoding → identity.
	req, err = http.NewRequest(http.MethodGet, e.ts.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("Content-Encoding"); got != "" {
		t.Errorf("identity request got Content-Encoding %q", got)
	}
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "mpstream_") {
		t.Error("identity metrics body looks wrong")
	}
}

// TestJobTraceGzip: the span timeline endpoint honours Accept-Encoding
// the same way /v1/metrics does — trace payloads grow with fleet size
// and compress well.
func TestJobTraceGzip(t *testing.T) {
	e := newEnv(t, service.Options{})
	cfg := smallConfig()
	_, data := e.post(t, "/v1/run", service.RunRequest{Target: "cpu", Config: &cfg})
	job := decodeJob(t, data)
	if job.Status != service.StatusDone {
		t.Fatalf("run job = %+v", job)
	}

	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/jobs/"+job.ID+"/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", got)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("body is not gzip: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var tv obs.TraceView
	if err := json.Unmarshal(plain, &tv); err != nil {
		t.Fatalf("gunzipped trace is not a trace view: %v", err)
	}
	if tv.Job != job.ID || len(tv.Roots) == 0 {
		t.Errorf("trace view = job %q, %d roots", tv.Job, len(tv.Roots))
	}
}
