package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the measured window of one run when --seconds is not
// given; BENCHMARK.json records it.
const runSeconds = 20

// spec is one metric of BENCHMARK.json. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type spec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"figures", "the paper's own use: regenerate fig1a/1b/3/4a/4b; timing model plus functional path, no service or fleet"},
	{"service-run", "2 closed-loop clients on POST /v1/run, 40% repeats: decode, queueing, result cache, single-flight, evaluator on misses"},
	{"fleet-sweep", "sweeps (verify off, 16 MB+) and surfaces through a 2-worker fleet: shard scheduling and merge, no functional path"},
}

// endToEnd lists the metrics every untraced run reports. Each workload
// defines its own operation: a pass over the five figures (figures), a
// /v1/run round trip (service-run), or a fleet sweep or surface job
// (fleet-sweep).
var endToEnd = []spec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"op_p50_ms", "ms", "lower", bound(0.25)},
	{"op_p99_ms", "ms", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not touch reports 0.
var perLayer = []spec{
	{"experiments.fig1a_s", "s", "lower", nil},
	{"experiments.fig1b_s", "s", "lower", nil},
	{"experiments.fig3_s", "s", "lower", nil},
	{"experiments.fig4a_s", "s", "lower", nil},
	{"experiments.fig4b_s", "s", "lower", nil},
	{"experiments.x_paper", "ratio", "lower", nil},
	{"figures.cpu_share.sim.cache", "ratio", "lower", nil},
	{"figures.cpu_share.sim.dram", "ratio", "lower", nil},
	{"figures.cpu_share.sim.mem", "ratio", "lower", nil},
	{"figures.cpu_share.kernel", "ratio", "lower", nil},
	{"figures.cpu_share.device.gpusim", "ratio", "lower", nil},
	{"figures.cpu_share.device.cpusim", "ratio", "lower", nil},
	{"figures.cpu_share.runtime.gc", "ratio", "lower", nil},
	{"service.queue_wait_ms.p50", "ms", "lower", nil},
	{"service.queue_wait_ms.p99", "ms", "lower", nil},
	{"service.exec_ms.p50", "ms", "lower", nil},
	{"service.http_overhead_ms.p50", "ms", "lower", nil},
	{"service.cache_hit_ratio", "ratio", "higher", nil},
	{"service.resp_kb", "KB", "lower", nil},
	{"cluster.shards_done", "count", "higher", nil},
	{"cluster.shards_stolen", "count", "lower", nil},
	{"cluster.shards_speculated", "count", "lower", nil},
	{"cluster.speculation_wasted", "count", "lower", nil},
	{"cluster.shards_retried", "count", "lower", nil},
	{"cluster.worker_busy_ratio", "ratio", "higher", nil},
	{"cluster.dispatch_overhead_ms", "ms", "lower", nil},
	{"surface.job_ms", "ms", "lower", nil},
	{"device.new_ms", "ms", "lower", nil},
	{"device.compile_ms", "ms", "lower", nil},
	{"device.timing_ms", "ms", "lower", nil},
	{"device.timing_calls", "count", "lower", nil},
	{"device.timing_repeat_ratio", "ratio", "lower", nil},
	{"kernel.functional_ms", "ms", "lower", nil},
	{"core.verify_ms", "ms", "lower", nil},
	{"core.eval_ms", "ms", "lower", nil},
	{"core.ledger_residual", "ratio", "lower", nil},
	{"service.exec_residual", "ratio", "lower", nil},
	{"mem.ns_per_req", "ns", "lower", nil},
	{"cache.ns_per_access", "ns", "lower", nil},
	{"cache.hit_ratio", "ratio", "higher", nil},
	{"dram.ns_per_txn", "ns", "lower", nil},
	{"dram.txns", "count", "lower", nil},
	{"dram.row_hit_ratio", "ratio", "higher", nil},
	{"dram.turnarounds", "count", "lower", nil},
	{"trace.overhead_ratio", "ratio", "lower", nil},
	{"error_ratio", "ratio", "lower", nil},
}

// benchmarkFile is the BENCHMARK.json document.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []spec         `json:"end_to_end"`
	PerLayer   []spec         `json:"per_layer"`
}

// specJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot disagree.
func specJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	})
	return buf.Bytes()
}
