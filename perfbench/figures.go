package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/pprof"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/device/targets"
	"mpstream/internal/experiments"
)

// figureIDs are the figures the figures workload regenerates.
var figureIDs = []string{"fig1a", "fig1b", "fig3", "fig4a", "fig4b"}

// figureAnswers are each figure's x-paper deviation and the digest of its
// measured series. The simulator is deterministic, so a run that
// produces anything else is wrong.
var figureAnswers = map[string]struct {
	xPaper float64
	digest string
}{
	"fig1a": {1.1147725264126138, "3fef37ef5d11b9ab67d34d3cec257baa776a4fc24692217f8f9867971527f09a"},
	"fig1b": {1.1072841381840497, "9312efd1e16eb40a6393ea482d363cc9bd89c4a5b806e67463a3b7939cf42800"},
	"fig3":  {1, "68aecf783632060ec20b55e499f6306a0ea8f690e427da79e6acba6c1ace4f33"},
	"fig4a": {1, "56e0b562db8e964e801f4dd927e197805283bae12b228ccd3a0042984e3479dd"},
	"fig4b": {1.1942514630110956, "098d56f3bc59fa9ad3dcbf8225d5bcc7ad83f137c59fd4149ea1464ca176979e"},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 31

// cpuGroups name the figures.cpu_share metrics. Self groups count the
// samples whose leaf frame is in the package; stack groups count the
// samples with any frame in the package. The kernel group is a stack
// group because the copy kernel's work happens in runtime.memmove.
var cpuGroups = []cpuGroup{
	{"figures.cpu_share.sim.cache", "mpstream/internal/sim/cache", false},
	{"figures.cpu_share.sim.dram", "mpstream/internal/sim/dram", false},
	{"figures.cpu_share.sim.mem", "mpstream/internal/sim/mem", false},
	{"figures.cpu_share.kernel", "mpstream/internal/kernel", true},
	{"figures.cpu_share.device.gpusim", "mpstream/internal/device/gpusim", true},
	{"figures.cpu_share.device.cpusim", "mpstream/internal/device/cpusim", true},
	{"figures.cpu_share.runtime.gc", gcGroup, true},
}

// runFigures regenerates the five figures through experiments.ByID in
// seed-permuted order, pass after pass, until the window ends. A traced
// run spends half the window on plain passes and then profiles one.
func runFigures(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, inputs: map[string]any{"figures": figureIDs}}
	rng := rand.New(rand.NewPCG(uint64(p.seed), 0x6669677572657331))

	// Set-up is what a figures process does before its first figure:
	// resolve the runners and build the paper's four targets.
	runners := map[string]experiments.Runner{}
	setup, err := medianOf(setupRepeats, func() (time.Duration, error) {
		t0 := time.Now()
		for _, id := range figureIDs {
			r, err := experiments.ByID(id)
			if err != nil {
				return 0, err
			}
			runners[id] = r
		}
		if len(targets.All()) != 4 {
			return 0, fmt.Errorf("want the four paper targets")
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}

	type call struct {
		id       string
		sec      float64
		exp      *experiments.Experiment
		profiled bool
	}
	var (
		passes   []float64 // seconds per untraced pass
		calls    []call
		profSec  float64
		profData []byte
	)
	start := time.Now()
	pass := func(profile bool) error {
		var buf bytes.Buffer
		if profile {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var pc []call
		for _, i := range rng.Perm(len(figureIDs)) {
			id := figureIDs[i]
			t := time.Now()
			e, err := runners[id](ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			pc = append(pc, call{id, time.Since(t).Seconds(), e, profile})
		}
		d := time.Since(t0).Seconds()
		if profile {
			pprof.StopCPUProfile()
			profSec, profData = d, buf.Bytes()
		} else {
			passes = append(passes, d)
		}
		calls = append(calls, pc...)
		return nil
	}
	window := p.window
	if p.trace {
		window /= 2
	}
	for len(passes) == 0 || time.Since(start) < window {
		if err := pass(false); err != nil {
			return nil, err
		}
	}
	if p.trace {
		if err := pass(true); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()

	// Checks, outside the timed window.
	perFig := map[string][]float64{}
	xPapers := map[string]float64{}
	for _, c := range calls {
		out.attempted++
		want := figureAnswers[c.id]
		got := c.exp.GeoMeanDeviation()
		xPapers[c.id] = got
		if got != want.xPaper {
			out.fail("%s: x-paper %.17g, want %.17g", c.id, got, want.xPaper)
			continue
		}
		if got := core.DigestJSON(c.exp.Series); got != want.digest {
			out.fail("%s: series digest %s, want %s", c.id, got, want.digest)
			continue
		}
		if !c.profiled {
			perFig[c.id] = append(perFig[c.id], c.sec)
		}
	}
	var logs float64
	for _, id := range figureIDs {
		logs += math.Log(xPapers[id])
	}
	xPaper := math.Exp(logs / float64(len(figureIDs)))
	out.inputs["passes"] = len(passes)
	out.inputs["figure_calls"] = len(calls)

	if !p.trace {
		out.metrics["setup_s"] = setup
		out.metrics["op_p50_ms"] = median(passes) * 1e3
		out.metrics["op_p99_ms"] = percentile(passes, 99) * 1e3
		out.metrics["ops_per_s"] = float64(len(passes)) / sum(passes)
		out.metrics["peak_rss_mb"] = rss
		out.named = append(out.named,
			namedValue{"figures_s", "s", median(passes)},
			namedValue{"x_paper", "ratio", xPaper})
		return out, nil
	}
	for _, id := range figureIDs {
		out.metrics["experiments."+id+"_s"] = median(perFig[id])
	}
	out.metrics["experiments.x_paper"] = xPaper
	shares, err := cpuShares(profData, cpuGroups)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		out.metrics[name] = v
	}
	out.metrics["trace.overhead_ratio"] = profSec / median(passes)
	return out, nil
}
