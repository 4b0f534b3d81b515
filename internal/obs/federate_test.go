package obs

import (
	"errors"
	"strings"
	"testing"

	"mpstream/internal/obs/obstest"
)

func TestMergeExpositions(t *testing.T) {
	w0 := Exposition{Worker: "w0", Body: "" +
		"# HELP mpstream_jobs_total Jobs.\n" +
		"# TYPE mpstream_jobs_total counter\n" +
		"mpstream_jobs_total{kind=\"run\"} 3\n" +
		"# HELP mpstream_job_duration_seconds Run duration.\n" +
		"# TYPE mpstream_job_duration_seconds histogram\n" +
		"mpstream_job_duration_seconds_bucket{kind=\"run\",le=\"1\"} 2\n" +
		"mpstream_job_duration_seconds_bucket{kind=\"run\",le=\"+Inf\"} 3\n" +
		"mpstream_job_duration_seconds_sum{kind=\"run\"} 1.5\n" +
		"mpstream_job_duration_seconds_count{kind=\"run\"} 3\n"}
	w1 := Exposition{Worker: "w1", Body: "" +
		"# HELP mpstream_jobs_total Jobs.\n" +
		"# TYPE mpstream_jobs_total counter\n" +
		"mpstream_jobs_total{kind=\"run\"} 8\n" +
		"# HELP mpstream_queue_depth Queue.\n" +
		"# TYPE mpstream_queue_depth gauge\n" +
		"mpstream_queue_depth 0\n"}
	// The coordinator's own fleet gauges already carry a worker label
	// naming peers — it must be renamed, not collide.
	coord := Exposition{Worker: "coordinator", Body: "" +
		"# HELP mpstream_cluster_worker_inflight Shards in flight per worker.\n" +
		"# TYPE mpstream_cluster_worker_inflight gauge\n" +
		"mpstream_cluster_worker_inflight{worker=\"w0\"} 1\n" +
		// Route label values legitimately contain '}' characters.
		"# HELP mpstream_http_requests_total Requests.\n" +
		"# TYPE mpstream_http_requests_total counter\n" +
		"mpstream_http_requests_total{route=\"/v1/jobs/{id}\",code=\"200\"} 7\n"}
	dead := Exposition{Worker: "w9", Err: errors.New("connection refused")}

	merged := MergeExpositions([]Exposition{coord, w0, w1, dead})

	for _, want := range []string{
		`mpstream_jobs_total{worker="w0",kind="run"} 3`,
		`mpstream_jobs_total{worker="w1",kind="run"} 8`,
		`mpstream_queue_depth{worker="w1"} 0`,
		`mpstream_job_duration_seconds_bucket{worker="w0",kind="run",le="+Inf"} 3`,
		`mpstream_job_duration_seconds_sum{worker="w0",kind="run"} 1.5`,
		`mpstream_cluster_worker_inflight{worker="coordinator",peer="w0"} 1`,
		`mpstream_http_requests_total{worker="coordinator",route="/v1/jobs/{id}",code="200"} 7`,
		`mpstream_federation_up{worker="w0"} 1`,
		`mpstream_federation_up{worker="w9"} 0`,
	} {
		if !strings.Contains(merged, want+"\n") {
			t.Errorf("merged exposition missing %q:\n%s", want, merged)
		}
	}

	// One HELP/TYPE pair per family even though two workers reported it.
	if n := strings.Count(merged, "# TYPE mpstream_jobs_total counter"); n != 1 {
		t.Errorf("TYPE mpstream_jobs_total emitted %d times, want 1", n)
	}
	// Histogram child samples must not grow their own TYPE lines.
	if strings.Contains(merged, "# TYPE mpstream_job_duration_seconds_bucket") {
		t.Error("histogram _bucket treated as its own family")
	}

	// The merged output is itself a well-formed exposition (the
	// federation endpoint serves exactly this).
	obstest.ValidateExposition(t, merged)
}

func TestMergeExpositionsEmpty(t *testing.T) {
	merged := MergeExpositions(nil)
	if !strings.Contains(merged, "# TYPE mpstream_federation_up gauge") {
		// Zero parts still render the up-family header block... or nothing
		// at all; either way the output must stay valid.
		if merged != "" {
			obstest.ValidateExposition(t, merged)
		}
	}
}
