// Command perfbench is the repository's benchmark. It runs one seeded
// workload in-process for a fixed window, checks every answer it gets,
// and prints its metrics by name with their units; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//	bash perfbench/run.sh --write-spec   # regenerate BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// params describes one run to a workload.
type params struct {
	seed   int64
	window time.Duration
	trace  bool
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end metrics (untraced) or the per-layer
	// metrics (traced) the workload touched; the rest report 0.
	metrics map[string]float64
	// named are workload-specific figures printed for people, such as
	// figures_s or run_rps; they are not part of the JSON result.
	named []namedValue
	// inputs records the workload parameters and the sample count behind
	// each percentile, for the provenance line.
	inputs map[string]any
	// problems lists every failed correctness check.
	problems []string
}

type namedValue struct {
	name, unit string
	value      float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, p params) (*outcome, error)

var workloads = map[string]workloadFunc{
	"figures":     runFigures,
	"service-run": runService,
	"fleet-sweep": runFleet,
}

func main() {
	workload := flag.String("workload", "", "figures | service-run | fleet-sweep | all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeSpec := flag.Bool("write-spec", false, "write BENCHMARK.json into the current directory and exit")
	flag.Parse()

	if *writeSpec {
		if err := os.WriteFile("BENCHMARK.json", specJSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"figures", "service-run", "fleet-sweep"}
	}
	p := params{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	ok := true
	for _, name := range names {
		run, found := workloads[name]
		if !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want figures, service-run, fleet-sweep or all)\n", name)
			os.Exit(2)
		}
		out, err := run(context.Background(), p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !report(name, p, out) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the outcome's metrics, provenance and JSON result, and
// returns whether every answer was correct.
func report(name string, p params, out *outcome) bool {
	table := endToEnd
	if p.trace {
		table = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(table)),
	}
	errRatio := ratio(float64(out.failed), float64(out.attempted))
	out.metrics["error_ratio"] = errRatio
	for _, m := range table {
		v := out.metrics[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	for _, nv := range out.named {
		fmt.Printf("metric %-34s %14.6g %s  (%s)\n", nv.name, nv.value, nv.unit, name)
	}
	if !p.trace {
		fmt.Printf("metric %-34s %14.6g ratio  (%s)\n", "error_ratio", errRatio, name)
	}
	for _, pr := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
	}
	prov, _ := json.Marshal(provenance(name, p, out))
	fmt.Printf("provenance %s\n", prov)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return res.Correct
}

// provenance stamps a result with what produced it.
func provenance(name string, p params, out *outcome) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       p.seed,
		"seconds":    p.window.Seconds(),
		"trace":      p.trace,
		"commit":     commit,
		"dirty":      modified,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"inputs":     out.inputs,
	}
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
