package main

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// ledgerMargin is the largest share of evaluation time, and of
// evaluating-job exec time, that the per-layer self times may leave
// unaccounted.
const ledgerMargin = 0.15

// TestSpecInSync keeps BENCHMARK.json equal to the tables in metrics.go.
func TestSpecInSync(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json is stale; run: bash perfbench/run.sh --write-spec")
	}
}

// TestSpecLimits checks the metric tables against the benchmark file's
// format limits.
func TestSpecLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q breaks the format", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for _, m := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q breaks the format", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if len(specJSON()) > 64<<10 {
		t.Error("BENCHMARK.json exceeds 64 KiB")
	}
}

// TestLedger runs short traced service-run and fleet-sweep workloads and
// checks that the layers account for the evaluation and exec times.
func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced workloads")
	}
	for name, run := range map[string]workloadFunc{"service-run": runService, "fleet-sweep": runFleet} {
		t.Run(name, func(t *testing.T) {
			out, err := run(context.Background(), params{seed: 7, window: 4 * time.Second, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.problems)
			}
			m := out.metrics
			if m["core.eval_ms"] <= 0 {
				t.Fatal("no evaluation time recorded")
			}
			for _, k := range []string{"core.ledger_residual", "service.exec_residual"} {
				if m[k] > ledgerMargin {
					t.Errorf("%s = %.3f, margin %.2f", k, m[k], ledgerMargin)
				}
			}
			if m["trace.overhead_ratio"] <= 0 {
				t.Error("trace.overhead_ratio not reported")
			}
			for _, k := range []string{"dram.txns", "mem.ns_per_req", "device.timing_calls"} {
				if m[k] <= 0 {
					t.Errorf("%s not reported", k)
				}
			}
		})
	}
}

// TestCPUShares profiles a known busy loop and checks that the decoder
// attributes it to this package.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x = spin(x)
	}
	pprof.StopCPUProfile()
	self := funcPackage(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	shares, err := cpuShares(buf.Bytes(), []cpuGroup{
		{"self", self, false},
		{"stack", "testing", true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shares["self"] < 0.5 || shares["stack"] < 0.9 {
		t.Errorf("shares = %v (x=%d), want most samples in spin under testing", shares, x)
	}
}

//go:noinline
func spin(x int) int {
	for i := 0; i < 1000; i++ {
		x = x*31 + i
	}
	return x
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"mpstream/internal/sim/cache.(*Cache).Access": "mpstream/internal/sim/cache",
		"runtime.gcBgMarkWorker":                      "runtime",
		"main.spin":                                   "main",
		"mpstream/internal/kernel.ApplyInt32":         "mpstream/internal/kernel",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}
