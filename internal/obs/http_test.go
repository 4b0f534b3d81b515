package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpstream/internal/obs/obstest"
)

func newTestMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "job %s trace %s", r.PathValue("id"), TraceID(r.Context()))
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	})
	return mux
}

func TestMiddlewareTraceMintAndEcho(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(Middleware(reg, NopLogger(), newTestMux()))
	defer ts.Close()

	// No inbound trace: one is minted, echoed, and visible in-context.
	resp, err := http.Get(ts.URL + "/v1/jobs/j42")
	if err != nil {
		t.Fatal(err)
	}
	minted := resp.Header.Get(TraceHeader)
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if minted == "" || SanitizeTraceID(minted) == "" {
		t.Fatalf("minted trace %q invalid", minted)
	}
	if want := "trace " + minted; !strings.Contains(string(body[:n]), want) {
		t.Fatalf("handler saw %q, want %q", body[:n], want)
	}

	// A supplied well-formed trace passes through untouched.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/j42", nil)
	req.Header.Set(TraceHeader, "fleet-trace-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "fleet-trace-1" {
		t.Fatalf("trace echoed as %q, want fleet-trace-1", got)
	}

	// A hostile trace is replaced, not propagated.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/j42", nil)
	req.Header.Set(TraceHeader, `evil"header`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got == `evil"header` || got == "" {
		t.Fatalf("hostile trace handled as %q", got)
	}
}

func TestMiddlewareMetrics(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(Middleware(reg, nil, newTestMux()))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/j1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/v1/fail", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		// The route label is the mux pattern, so /v1/jobs/j1 does not
		// create its own label value.
		`mpstream_http_requests_total{code="200",route="GET /v1/jobs/{id}"} 3`,
		`mpstream_http_requests_total{code="400",route="POST /v1/fail"} 1`,
		`code="404",route="unmatched"`,
		`mpstream_http_request_seconds_count{route="GET /v1/jobs/{id}"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if got := reg.Gauge("mpstream_http_inflight_requests", "").Value(); got != 0 {
		t.Errorf("inflight gauge = %v after requests drained, want 0", got)
	}
	obstest.ValidateExposition(t, out)
}

func TestMiddlewareFlusherPassthrough(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stream", func(w http.ResponseWriter, _ *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			http.Error(w, "no flusher", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	})
	ts := httptest.NewServer(Middleware(NewRegistry(), nil, mux))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming handler lost http.Flusher through the middleware: %d", resp.StatusCode)
	}
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body %q", rec.Body.String())
	}
}
