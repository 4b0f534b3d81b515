package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/service"
	"mpstream/internal/sim/mem"
)

// runStratum is one cost class of /v1/run configurations: a target, an
// array size and a pattern family. Sizes are chosen so that a miss costs
// about the same, 6–12 ms on a 2.1 GHz Xeon, in every stratum; the miss
// latencies then form one mode and their percentiles do not jump between
// strata. Every round of new configurations draws each stratum once, so
// a run's cost mix does not depend on the seed; the seed picks the ops,
// vector width, type, stride and scalar within each stratum.
type runStratum struct {
	target  string
	bytes   int64
	pattern mem.PatternKind
}

var runStrata = []runStratum{
	{"aocl", 1 << 20, mem.Contiguous},
	{"aocl", 96 << 10, mem.Strided},
	{"aocl", 96 << 10, mem.ColMajor2D},
	{"sdaccel", 768 << 10, mem.Contiguous},
	{"sdaccel", 1 << 20, mem.Strided},
	{"sdaccel", 4 << 20, mem.ColMajor2D},
	{"cpu", 256 << 10, mem.Contiguous},
	{"cpu", 96 << 10, mem.Strided},
	{"cpu", 96 << 10, mem.ColMajor2D},
	{"gpu", 192 << 10, mem.Contiguous},
	{"gpu", 96 << 10, mem.Strided},
	{"gpu", 64 << 10, mem.ColMajor2D},
}

const (
	// runClients is the closed loop's client count: at most two
	// concurrent requests on a two-CPU host.
	runClients = 2
	// repeatShare is the share of requests that repeat an earlier
	// configuration. It stays clear of one half so that the median
	// round trip falls inside the miss distribution instead of
	// flipping between the hit and miss modes from seed to seed.
	repeatShare = 0.4
	// repeatWindow is how many of the latest distinct configurations a
	// repeat draws from; it is well inside the default 512-entry cache.
	repeatWindow = 256
	// substrateConfigs is how many of the first distinct configurations
	// a traced run replays through the simulator substrate; every run
	// reaches it, so the replay's counts are deterministic.
	substrateConfigs = 24
)

// runPool is the seeded request sequence of the service-run workload.
type runPool struct {
	mu      sync.Mutex
	rng     *rand.Rand
	round   []int
	configs []targetConfig // distinct configurations, in request order
	bodies  [][]byte
}

func newRunPool(seed int64) *runPool {
	return &runPool{rng: rand.New(rand.NewPCG(uint64(seed), 0x72756e706f6f6c))}
}

// next returns the index of the next configuration to request.
func (p *runPool) next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.configs); n > 0 && p.rng.Float64() < repeatShare {
		lo := max(0, n-repeatWindow)
		return lo + p.rng.IntN(n-lo)
	}
	if len(p.round) == 0 {
		p.round = p.rng.Perm(len(runStrata))
	}
	st := runStrata[p.round[0]]
	p.round = p.round[1:]
	tc := targetConfig{st.target, p.draw(st)}
	body, _ := json.Marshal(service.RunRequest{Target: tc.target, Config: &tc.cfg})
	p.configs = append(p.configs, tc)
	p.bodies = append(p.bodies, body)
	return len(p.configs) - 1
}

// draw makes a fresh configuration in a stratum. A new integer scalar
// makes every draw a distinct question for the result cache, and a small
// size offset (at most 8 KB, or 63 rows of a column-major matrix) makes
// its timing questions distinct from earlier draws too: this workload
// shares no timing work across requests.
func (p *runPool) draw(st runStratum) core.Config {
	cfg := core.DefaultConfig()
	ops := kernel.Ops()
	i := p.rng.IntN(len(ops))
	cfg.Ops = []kernel.Op{ops[i], ops[(i+1+p.rng.IntN(len(ops)-1))%len(ops)]}
	cfg.Scalar = float64(2 + p.rng.IntN(1<<20))
	// 128 bytes is a whole number of elements at every type and width.
	cfg.ArrayBytes = st.bytes + 128*int64(p.rng.IntN(64))
	switch st.pattern {
	case mem.Contiguous:
		cfg.Pattern = mem.ContiguousPattern()
		cfg.VecWidth = kernel.VecWidths()[p.rng.IntN(5)]
		if p.rng.IntN(2) == 1 {
			cfg.Type = kernel.Float64
		}
	case mem.Strided:
		cfg.Pattern = mem.StridedPattern(2 << p.rng.IntN(4))
		cfg.VecWidth = 2 << p.rng.IntN(3)
	default:
		// Keep the stratum's near-square row length, so the offset
		// changes the size and not the stride.
		cfg.VecWidth = 2 << p.rng.IntN(3)
		elemBytes := int64(cfg.Type.Bytes()) * int64(cfg.VecWidth)
		rows, cols := mem.Shape2D(int(st.bytes / elemBytes))
		rows += p.rng.IntN(64)
		cfg.Pattern = mem.Pattern{Kind: mem.ColMajor2D, Rows: rows, Cols: cols}
		cfg.ArrayBytes = int64(rows*cols) * elemBytes
	}
	return cfg
}

func (p *runPool) body(i int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bodies[i]
}

// runSample is one /v1/run exchange.
type runSample struct {
	cfg  int
	ex   exchange
	hash [32]byte // of the raw result
}

// runPhase is one closed-loop phase against a fresh server.
type runPhase struct {
	setup   float64
	samples []runSample
	elapsed time.Duration
	rss     float64
	raw     map[int]json.RawMessage // first raw result per configuration
}

// runLoop sets up a server (setupRepeats times, keeping the last), then
// lets runClients clients send requests from the pool until the window
// ends.
func runLoop(ctx context.Context, pool *runPool, opts service.Options, window time.Duration) (*runPhase, error) {
	var srv *liveServer
	setup, err := medianOf(setupRepeats, func() (time.Duration, error) {
		if srv != nil {
			srv.Close()
		}
		t0 := time.Now()
		s, err := startServer(opts)
		srv = s
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runClients}}
	defer client.CloseIdleConnections()

	ph := &runPhase{setup: setup, raw: map[int]json.RawMessage{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				i := pool.next()
				ex := post(ctx, client, srv.url+"/v1/run", pool.body(i))
				s := runSample{cfg: i, ex: ex, hash: sha256.Sum256(ex.view.Result)}
				mu.Lock()
				ph.samples = append(ph.samples, s)
				if _, ok := ph.raw[i]; !ok && ex.err == nil {
					ph.raw[i] = ex.view.Result
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.rss = peakRSSMB()
	return ph, nil
}

// runService is the service-run workload: a closed loop of runClients
// HTTP clients sending synchronous POST /v1/run requests to an
// in-process server (Workers: 2, default cache). 40% of the requests
// repeat a recent configuration and take the cache-hit path; the rest
// are new and simulate. A traced run spends the middle half of the
// window against a fresh server whose devices are timed.
func runService(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, inputs: map[string]any{
		"clients": runClients, "server_workers": 2, "repeat_share": repeatShare,
		"repeat_window": repeatWindow, "strata": len(runStrata),
	}}
	opts := service.Options{Workers: 2}
	memo := newAnswerMemo()
	if !p.trace {
		pool := newRunPool(p.seed)
		ph, err := runLoop(ctx, pool, opts, p.window)
		if err != nil {
			return nil, err
		}
		checkRuns(out, pool, ph, memo)
		rtts := ph.rtts()
		out.metrics["setup_s"] = ph.setup
		out.metrics["op_p50_ms"] = median(rtts)
		out.metrics["op_p99_ms"] = percentile(rtts, 99)
		out.metrics["ops_per_s"] = float64(len(rtts)) / ph.elapsed.Seconds()
		out.metrics["peak_rss_mb"] = ph.rss
		out.inputs["requests"] = len(rtts)
		out.inputs["distinct_configs"] = len(ph.raw)
		out.named = append(out.named,
			namedValue{"run_p50_ms", "ms", median(rtts)},
			namedValue{"run_p99_ms", "ms", percentile(rtts, 99)},
			namedValue{"run_rps", "1/s", float64(len(rtts)) / ph.elapsed.Seconds()})
		return out, nil
	}

	// Untraced quarters before and after the traced half give the
	// tracing overhead without a warm-up bias.
	var plainRTTs []float64
	plainPhase := func() error {
		pool := newRunPool(p.seed)
		ph, err := runLoop(ctx, pool, opts, p.window/4)
		if err != nil {
			return err
		}
		checkRuns(out, pool, ph, memo)
		plainRTTs = append(plainRTTs, ph.rtts()...)
		return nil
	}
	if err := plainPhase(); err != nil {
		return nil, err
	}
	tr := newDeviceTracer()
	traced := opts
	traced.NewDevice = tr.newDevice
	pool := newRunPool(p.seed)
	ph, err := runLoop(ctx, pool, traced, p.window/2)
	if err != nil {
		return nil, err
	}
	if err := plainPhase(); err != nil {
		return nil, err
	}
	checkRuns(out, pool, ph, memo)
	out.inputs["requests"] = len(ph.samples)
	out.inputs["untraced_requests"] = len(plainRTTs)

	m := out.metrics
	exs := make([]exchange, len(ph.samples))
	var evals int
	var evalMS, execMiss float64
	var misses []targetConfig
	for i, s := range ph.samples {
		exs[i] = s.ex
		if v := s.ex.view; s.ex.err == nil && !v.Cached {
			evals++
			evalMS += v.spanMS("run.eval")
			execMiss += ms(v.Finished.Sub(v.Started))
			misses = append(misses, pool.configs[s.cfg])
		}
	}
	out.inputs["percentile_samples"] = serviceMetrics(exs, m)
	out.inputs["evaluations"] = evals

	var functional, verify time.Duration
	for _, tc := range misses {
		f, v, err := functionalReplay(tc.cfg)
		if err != nil {
			return nil, err
		}
		functional += f
		verify += v
	}
	tr.metrics(evals, m)
	m["kernel.functional_ms"] = ratio(ms(functional), float64(evals))
	m["core.verify_ms"] = ratio(ms(verify), float64(evals))
	m["core.eval_ms"] = ratio(evalMS, float64(evals))
	accounted := m["device.compile_ms"] + m["device.timing_ms"] + m["kernel.functional_ms"] + m["core.verify_ms"]
	m["core.ledger_residual"] = ratio(math.Abs(m["core.eval_ms"]-accounted), m["core.eval_ms"])
	m["service.exec_residual"] = ratio(math.Abs(execMiss-evalMS-ms(tr.buildTime())), execMiss)

	if len(pool.configs) < substrateConfigs {
		return nil, fmt.Errorf("substrate replay needs %d configurations, the run made %d", substrateConfigs, len(pool.configs))
	}
	if err := replaySubstrate(pool.configs[:substrateConfigs], m); err != nil {
		return nil, err
	}
	m["trace.overhead_ratio"] = ratio(mean(ph.rtts()), mean(plainRTTs))
	return out, nil
}

// replaySubstrate replays the timing questions of runs through the
// simulator substrate.
func replaySubstrate(runs []targetConfig, m map[string]float64) error {
	cases, err := substrateCases(runs)
	if err != nil {
		return err
	}
	var st substrateTotals
	for _, c := range cases {
		if err := st.replay(c); err != nil {
			return err
		}
	}
	st.metrics(m)
	return nil
}

func (ph *runPhase) rtts() []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if s.ex.err == nil {
			xs = append(xs, ms(s.ex.rtt))
		}
	}
	return xs
}

// checkRuns counts every exchange as attempted and checks the answers,
// outside the timed window: each distinct configuration's result must
// digest equal to an in-process core.Run of it with every kernel
// verified, and every answer for a configuration must carry the same
// bytes.
func checkRuns(out *outcome, pool *runPool, ph *runPhase, memo *answerMemo) {
	first := map[int][32]byte{}
	for _, s := range ph.samples {
		out.attempted++
		if s.ex.err != nil {
			out.fail("run %d: %v", s.cfg, s.ex.err)
			continue
		}
		if h, ok := first[s.cfg]; ok && h != s.hash {
			out.fail("run %d: answers differ between requests", s.cfg)
			continue
		}
		first[s.cfg] = s.hash
	}
	idx := slices.Sorted(maps.Keys(ph.raw))
	wrong := make([]string, len(idx))
	parallel(len(idx), func(k int) {
		i := idx[k]
		tc := pool.configs[i]
		var got core.Result
		if err := json.Unmarshal(ph.raw[i], &got); err != nil {
			wrong[k] = fmt.Sprintf("run %d: decode result: %v", i, err)
			return
		}
		for _, kr := range got.Kernels {
			if !kr.Verified {
				wrong[k] = fmt.Sprintf("run %d: %s not verified", i, kr.Kernel)
				return
			}
		}
		want, err := memo.digest(string(pool.body(i)), func() (any, error) {
			dev, err := targets.ByID(tc.target)
			if err != nil {
				return nil, err
			}
			return core.Run(dev, tc.cfg.Canonical())
		})
		if err != nil {
			wrong[k] = fmt.Sprintf("run %d: local run: %v", i, err)
			return
		}
		if core.DigestJSON(&got) != want {
			wrong[k] = fmt.Sprintf("run %d on %s: result digest differs from a local core.Run", i, tc.target)
		}
	})
	for _, w := range wrong {
		if w != "" {
			out.fail("%s", w)
		}
	}
}
