package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/service"
	"mpstream/internal/surface"
)

// fleetSlot is one job of a fleet round. Every round runs each slot
// once, in a seeded order, so a run's cost mix does not depend on the
// seed; the seed picks ops, vector widths, scalars and surface rates.
type fleetSlot struct {
	target string
	bytes  int64       // sweep array size; 0 marks a surface job
	ops    []kernel.Op // ops a sweep may pick from
}

// Ops with the same stream count cost the same to simulate.
var (
	twoStream   = []kernel.Op{kernel.Copy, kernel.Scale}
	threeStream = []kernel.Op{kernel.Add, kernel.Triad}
)

// fleetSlots is one round: sweeps of eight points at 16 MB and up (two
// shards at the default shard unit), cheaper two-stream ops on the
// expensive CPU and GPU timing models, and two surfaces. The three FPGA
// sweeps move the same bytes, so the median job falls among jobs of
// one cost.
var fleetSlots = []fleetSlot{
	{"aocl", 32 << 20, threeStream},
	{"aocl", 48 << 20, twoStream},
	{"sdaccel", 32 << 20, threeStream},
	{"cpu", 16 << 20, twoStream},
	{"gpu", 16 << 20, twoStream},
	{"aocl", 0, nil},
	{"gpu", 0, nil},
}

const (
	// fleetWorkers is the number of in-process workers (Workers: 1,
	// SweepWorkers: 1 each).
	fleetWorkers = 2
	// sweepNTimes is the repetition count of every swept point.
	sweepNTimes = 2
	// surfaceWindow is the transactions simulated per surface rung.
	surfaceWindow = 32768
	// substratePointsPerSweep is how many points of each sweep of the
	// first round a traced run replays through the simulator substrate.
	substratePointsPerSweep = 3
)

// fleetJob is one seeded job: a sweep or a surface.
type fleetJob struct {
	slot  fleetSlot
	sweep *service.SweepRequest
	surf  *service.SurfaceRequest
	body  []byte
}

// local answers the job on one local device: dse.Explore for a sweep,
// core.RunSurface for a surface.
func (j *fleetJob) local() (any, error) {
	dev, err := targets.ByID(j.slot.target)
	if err != nil {
		return nil, err
	}
	if j.surf != nil {
		return core.RunSurface(dev, *j.surf.Config)
	}
	base := *j.sweep.Base
	base.Ops = []kernel.Op{*j.sweep.Op}
	ex := dse.Explore(dev, base.Canonical(), j.sweep.Space, *j.sweep.Op)
	return &ex, nil
}

func (j *fleetJob) path() string {
	if j.sweep != nil {
		return "/v1/sweep"
	}
	return "/v1/surface"
}

// fleetPlan is the seeded job sequence of the fleet-sweep workload.
type fleetPlan struct {
	rng   *rand.Rand
	round []int
	jobs  []*fleetJob
}

func newFleetPlan(seed int64) *fleetPlan {
	return &fleetPlan{rng: rand.New(rand.NewPCG(uint64(seed), 0x666c656574))}
}

// job returns the i-th job of the sequence, drawing it on first use.
func (p *fleetPlan) job(i int) *fleetJob {
	for len(p.jobs) <= i {
		if len(p.round) == 0 {
			p.round = p.rng.Perm(len(fleetSlots))
		}
		p.jobs = append(p.jobs, p.draw(fleetSlots[p.round[0]]))
		p.round = p.round[1:]
	}
	return p.jobs[i]
}

func (p *fleetPlan) draw(s fleetSlot) *fleetJob {
	j := &fleetJob{slot: s}
	if s.bytes == 0 {
		// A seeded rate ladder makes every surface a distinct question
		// at the cost of the default ladder.
		rates := surface.DefaultRates()
		for i := range rates {
			rates[i] *= 1 + float64(p.rng.IntN(1000))/1e5
		}
		j.surf = &service.SurfaceRequest{Target: s.target, Config: &surface.Config{Rates: rates, WindowTxns: surfaceWindow}}
		j.body, _ = json.Marshal(j.surf)
		return j
	}
	base := core.DefaultConfig()
	base.ArrayBytes = s.bytes
	base.Verify = false
	base.NTimes = sweepNTimes
	base.Scalar = float64(2 + p.rng.IntN(1<<20))
	op := s.ops[p.rng.IntN(len(s.ops))]
	// Vector width 1 is left out: it multiplies the elements, and so the
	// cost, of a point several times over.
	widths := []int{2, 4, 8, 16}
	p.rng.Shuffle(len(widths), func(a, b int) { widths[a], widths[b] = widths[b], widths[a] })
	space := dse.Space{VecWidths: widths, Types: kernel.DataTypes()}
	j.sweep = &service.SweepRequest{Target: s.target, Base: &base, Space: space, Op: &op}
	j.body, _ = json.Marshal(j.sweep)
	return j
}

// fleet is a coordinator with its workers, all in-process on loopback.
type fleet struct {
	coord   *cluster.Coordinator
	front   *liveServer
	workers []*liveServer
	cancel  context.CancelFunc
	joined  sync.WaitGroup
}

// startFleet builds the coordinator and its workers and returns once
// every worker has registered.
// A nil newDevice gives the workers the paper's targets.
func startFleet(newDevice func(string) (device.Device, error)) (*fleet, error) {
	f := &fleet{coord: cluster.New(cluster.Options{})}
	var err error
	f.front, err = startServer(service.Options{Workers: 1, Cluster: f.coord, Origin: "coordinator"})
	if err != nil {
		f.coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		opts := service.Options{Workers: 1, SweepWorkers: 1, Origin: fmt.Sprintf("w%d", i), NewDevice: newDevice}
		w, err := startServer(opts)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.joined.Add(1)
		go func(id string, url string) {
			defer f.joined.Done()
			cluster.Join(ctx, cluster.JoinOptions{
				Coordinator: f.front.url,
				Self:        cluster.WorkerInfo{ID: id, Addr: url, Targets: targets.IDs(), Capacity: 1},
			})
		}(opts.Origin, w.url)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if alive, _ := f.coord.Counts(); alive == fleetWorkers {
			return f, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	f.Close()
	return nil, fmt.Errorf("workers did not register within 10s")
}

// Close stops the join loops, the servers and the coordinator.
func (f *fleet) Close() {
	f.cancel()
	f.joined.Wait()
	for _, w := range f.workers {
		w.Close()
	}
	f.front.Close()
	f.coord.Close()
}

// fleetSample is one fleet job exchange.
type fleetSample struct {
	job *fleetJob
	ex  exchange
}

// fleetPhase is one run of the job sequence against a fresh fleet.
type fleetPhase struct {
	setup   float64
	samples []fleetSample
	elapsed time.Duration
	rss     float64
	stats   cluster.FleetStats // delta over the window
	shards  [][]service.View   // per worker, the shard jobs it ran
}

// fleetLoop sets up a fleet (setupRepeats times, keeping the last), then
// sends the plan's jobs one at a time until the window ends, finishing
// the round in progress so that every run measures whole rounds.
func fleetLoop(ctx context.Context, plan *fleetPlan, newDevice func(string) (device.Device, error), window time.Duration) (*fleetPhase, error) {
	var f *fleet
	setup, err := medianOf(setupRepeats, func() (time.Duration, error) {
		if f != nil {
			f.Close()
		}
		t0 := time.Now()
		fl, err := startFleet(newDevice)
		f = fl
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	ph := &fleetPhase{setup: setup}
	before := f.coord.Stats()
	start := time.Now()
	for i := 0; i%len(fleetSlots) != 0 || i == 0 || time.Since(start) < window; i++ {
		j := plan.job(i)
		ph.samples = append(ph.samples, fleetSample{j, post(ctx, client, f.front.url+j.path(), j.body)})
	}
	ph.elapsed = time.Since(start)
	ph.rss = peakRSSMB()
	ph.stats = statsDelta(f.coord.Stats(), before)
	for _, w := range f.workers {
		views, _, _ := w.svc.Jobs("", 0)
		ph.shards = append(ph.shards, views)
	}
	return ph, nil
}

func statsDelta(a, b cluster.FleetStats) cluster.FleetStats {
	return cluster.FleetStats{
		ShardsDone:        a.ShardsDone - b.ShardsDone,
		ShardsStolen:      a.ShardsStolen - b.ShardsStolen,
		ShardsSpeculated:  a.ShardsSpeculated - b.ShardsSpeculated,
		SpeculationWasted: a.SpeculationWasted - b.SpeculationWasted,
		ShardsRetried:     a.ShardsRetried - b.ShardsRetried,
	}
}

// runFleet is the fleet-sweep workload: one client sends synchronous
// sweep and surface jobs to an in-process coordinator with two
// in-process workers. Sweeps run timing-only on 16 MB and larger arrays,
// so the functional path never runs. A traced run spends the middle half
// of the window against a fresh fleet whose worker devices are timed.
func runFleet(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, inputs: map[string]any{
		"workers": fleetWorkers, "round_jobs": len(fleetSlots), "sweep_points": 8,
		"sweep_ntimes": sweepNTimes, "surface_window_txns": surfaceWindow,
	}}
	memo := newAnswerMemo()
	if !p.trace {
		plan := newFleetPlan(p.seed)
		ph, err := fleetLoop(ctx, plan, nil, p.window)
		if err != nil {
			return nil, err
		}
		checkFleet(out, ph, memo)
		rtts := ph.rtts(nil)
		out.metrics["setup_s"] = ph.setup
		out.metrics["op_p50_ms"] = median(rtts)
		out.metrics["op_p99_ms"] = percentile(rtts, 99)
		out.metrics["ops_per_s"] = float64(len(rtts)) / ph.elapsed.Seconds()
		out.metrics["peak_rss_mb"] = ph.rss
		out.inputs["jobs"] = len(rtts)
		points := 0
		for _, s := range ph.samples {
			if s.job.sweep != nil && s.ex.err == nil {
				points += s.job.sweep.Space.Size()
			}
		}
		surf := ph.rtts(func(j *fleetJob) bool { return j.surf != nil })
		out.named = append(out.named,
			namedValue{"sweep_points_per_s", "1/s", float64(points) / ph.elapsed.Seconds()},
			namedValue{"surface_s", "s", median(surf) / 1e3})
		return out, nil
	}

	// Untraced quarters before and after the traced half give the
	// tracing overhead without a warm-up bias.
	var plainRTTs []float64
	plainPhase := func() error {
		ph, err := fleetLoop(ctx, newFleetPlan(p.seed), nil, p.window/4)
		if err != nil {
			return err
		}
		checkFleet(out, ph, memo)
		plainRTTs = append(plainRTTs, ph.rtts(nil)...)
		return nil
	}
	if err := plainPhase(); err != nil {
		return nil, err
	}
	tr := newDeviceTracer()
	plan := newFleetPlan(p.seed)
	ph, err := fleetLoop(ctx, plan, tr.newDevice, p.window/2)
	if err != nil {
		return nil, err
	}
	if err := plainPhase(); err != nil {
		return nil, err
	}
	checkFleet(out, ph, memo)
	out.inputs["jobs"] = len(ph.samples)
	out.inputs["untraced_jobs"] = len(plainRTTs)

	m := out.metrics
	exs := make([]exchange, len(ph.samples))
	for i, s := range ph.samples {
		exs[i] = s.ex
	}
	out.inputs["percentile_samples"] = serviceMetrics(exs, m)

	st := ph.stats
	m["cluster.shards_done"] = float64(st.ShardsDone)
	m["cluster.shards_stolen"] = float64(st.ShardsStolen)
	m["cluster.shards_speculated"] = float64(st.ShardsSpeculated)
	m["cluster.speculation_wasted"] = float64(st.SpeculationWasted)
	m["cluster.shards_retried"] = float64(st.ShardsRetried)

	// Attribute the workers' shard jobs to fleet jobs by trace ID.
	busy := map[string][]float64{} // trace -> per-worker exec seconds
	var execAll, execSweep, pointSec float64
	points := 0
	for w, views := range ph.shards {
		for _, v := range views {
			d := v.Finished.Sub(v.Started).Seconds()
			if busy[v.Trace] == nil {
				busy[v.Trace] = make([]float64, fleetWorkers)
			}
			busy[v.Trace][w] += d
			execAll += d
			if v.Kind != service.KindSweep {
				continue
			}
			execSweep += d
			for _, sp := range v.Spans {
				if sp.Name == "sweep.point" {
					pointSec += sp.Duration.Seconds()
					points++
				}
			}
		}
	}
	var wall float64
	var dispatch []float64
	for _, s := range ph.samples {
		if s.ex.err != nil {
			continue
		}
		rtt := s.ex.rtt.Seconds()
		wall += rtt
		busiest := 0.0
		for _, b := range busy[s.ex.view.Trace] {
			busiest = max(busiest, b)
		}
		dispatch = append(dispatch, (rtt-busiest)*1e3)
	}
	m["cluster.worker_busy_ratio"] = ratio(execAll, fleetWorkers*wall)
	m["cluster.dispatch_overhead_ms"] = median(dispatch)
	m["surface.job_ms"] = median(ph.rtts(func(j *fleetJob) bool { return j.surf != nil }))

	tr.metrics(points, m)
	m["core.eval_ms"] = ratio(pointSec*1e3, float64(points))
	accounted := m["device.compile_ms"] + m["device.timing_ms"]
	m["core.ledger_residual"] = ratio(math.Abs(m["core.eval_ms"]-accounted), m["core.eval_ms"])
	m["service.exec_residual"] = ratio(math.Abs(execSweep-pointSec-tr.buildTime().Seconds()), execSweep)
	out.inputs["evaluations"] = points

	// The first round covers every sweep slot once.
	var swept []targetConfig
	for i := range fleetSlots {
		j := plan.job(i)
		if j.sweep == nil {
			continue
		}
		base := *j.sweep.Base
		base.Ops = []kernel.Op{*j.sweep.Op}
		for _, cfg := range j.sweep.Space.Configs(base)[:substratePointsPerSweep] {
			swept = append(swept, targetConfig{j.sweep.Target, cfg})
		}
	}
	if err := replaySubstrate(swept, m); err != nil {
		return nil, err
	}
	m["trace.overhead_ratio"] = ratio(mean(ph.rtts(nil)), mean(plainRTTs))
	return out, nil
}

// rtts returns the round trips in ms of the successful jobs keep
// selects (all when keep is nil).
func (ph *fleetPhase) rtts(keep func(*fleetJob) bool) []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if s.ex.err == nil && (keep == nil || keep(s.job)) {
			xs = append(xs, ms(s.ex.rtt))
		}
	}
	return xs
}

// checkFleet counts every job as attempted and checks the answers,
// outside the timed window: each merged sweep ranking must be
// byte-identical to a local dse.Explore over the same grid, and each
// merged surface to a local core.RunSurface.
func checkFleet(out *outcome, ph *fleetPhase, memo *answerMemo) {
	wrong := make([]string, len(ph.samples))
	out.attempted += len(ph.samples)
	parallel(len(ph.samples), func(k int) {
		s := ph.samples[k]
		if s.ex.err != nil {
			wrong[k] = s.ex.err.Error()
			return
		}
		j := s.job
		var got any
		var err error
		if j.sweep != nil {
			var ex dse.Exploration
			err = json.Unmarshal(s.ex.view.Sweep, &ex)
			got = &ex
		} else {
			var sf surface.Surface
			err = json.Unmarshal(s.ex.view.Surface, &sf)
			got = &sf
		}
		want, lerr := memo.digest(j.path()+string(j.body), j.local)
		if err == nil {
			err = lerr
		}
		if err != nil {
			wrong[k] = fmt.Sprintf("%s on %s: %v", j.path(), j.slot.target, err)
			return
		}
		if core.DigestJSON(got) != want {
			wrong[k] = fmt.Sprintf("%s on %s: merged answer differs from a local run", j.path(), j.slot.target)
		}
	})
	for _, w := range wrong {
		if w != "" {
			out.fail("%s", w)
		}
	}
}
