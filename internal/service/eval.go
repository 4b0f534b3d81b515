package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"mpstream/internal/cluster"
	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/dse"
	"mpstream/internal/kernel"
	"mpstream/internal/obs"
	"mpstream/internal/runstate"
	"mpstream/internal/sim/mem"
	"mpstream/internal/surface"
)

// evaluator answers one job's measurement questions — run a
// configuration, sweep a grid slice, measure a surface's curves — on
// this process's simulator or across the fleet. evaluatorFor picks it
// once per job; a fleet evaluator still measures locally whenever the
// fleet reports itself unavailable. An evaluator belongs to its job's
// executing goroutine.
type evaluator struct {
	s         *Server
	j         *Job
	target    string
	timeoutMS int64
	// fleet is the coordinator the job's work goes to; nil measures
	// locally.
	fleet *cluster.Coordinator
	// fleetPhase is the progress phase a whole sweep or surface job
	// shows while the fleet runs it; "" keeps the job's own phase.
	fleetPhase string
	// dev is the local device runs and surfaces measure on, built on
	// first use.
	dev device.Device
}

// evaluatorFor picks j's evaluator: the fleet's on a coordinator,
// local otherwise. Shard jobs are always local — a worker executes its
// slice, it never re-shards it.
func (s *Server) evaluatorFor(j *Job) *evaluator {
	snap := j.Snapshot()
	e := &evaluator{s: s, j: j, target: snap.Target, timeoutMS: snap.TimeoutMS}
	if !j.shard && s.opts.Cluster != nil {
		e.fleet = s.opts.Cluster
		if snap.Kind == KindSweep || snap.Kind == KindSurface {
			e.fleetPhase = string(snap.Kind) + ":fleet"
		}
	}
	return e
}

// onFleet hands call to the fleet. It reports false — measure locally
// — on a local evaluator, and when the fleet turns out unavailable (no
// alive worker for the target, or every attempt lost in transport)
// while the job still has time; the job's phase is then restored.
func (e *evaluator) onFleet(ctx context.Context, call func(*cluster.Coordinator) error) (bool, error) {
	if e.fleet == nil {
		return false, nil
	}
	phase := e.j.prog.Snapshot().Phase
	if e.fleetPhase != "" {
		e.j.prog.SetPhase(e.fleetPhase)
	}
	err := call(e.fleet)
	if errors.Is(err, cluster.ErrUnavailable) && ctx.Err() == nil {
		e.j.prog.SetPhase(phase)
		return false, nil
	}
	return true, err
}

// prepare builds a local evaluator's device ahead of the evaluation, so
// the caller's evaluation span times the evaluation alone, as the
// bench ledger assumes. A fleet evaluator builds one only if it falls
// back.
func (e *evaluator) prepare() error {
	if e.fleet != nil {
		return nil
	}
	_, err := e.device()
	return err
}

// device returns the local device, building it on first use.
func (e *evaluator) device() (device.Device, error) {
	if e.dev == nil {
		dev, err := e.s.opts.NewDevice(e.target)
		if err != nil {
			return nil, err
		}
		e.dev = dev
	}
	return e.dev, nil
}

// run evaluates one configuration. On the fleet, a worker-reported
// error is a real outcome (an infeasible design, or the job's context
// ending), not a reason to fall back.
func (e *evaluator) run(ctx context.Context, cfg core.Config) (*core.Result, error) {
	var res *core.Result
	remote, err := e.onFleet(ctx, func(fl *cluster.Coordinator) (err error) {
		res, err = fl.Eval(ctx, e.target, cfg, e.timeoutMS)
		return err
	})
	if remote {
		if err != nil {
			return nil, err
		}
		// The worker's result carries its decoded copy of cfg; restore
		// the caller's so the answer reads exactly like a local one.
		res.Config = cfg
		return res, nil
	}
	dev, err := e.device()
	if err != nil {
		return nil, err
	}
	return core.RunContext(ctx, dev, cfg)
}

// surface measures the curves [lo, hi) of cfg's ladder in
// pattern-major order; a fleet evaluator is only asked for whole
// ladders. A canceled or deadline-expired measurement returns the
// rungs measured so far, tagged Stopped.
func (e *evaluator) surface(ctx context.Context, cfg surface.Config, lo, hi int) (*surface.Surface, error) {
	var res *surface.Surface
	remote, err := e.onFleet(ctx, func(fl *cluster.Coordinator) (err error) {
		spec := cluster.SurfaceSpec{Target: e.target, Config: cfg, TimeoutMS: e.timeoutMS}
		res, _, err = fl.Surface(ctx, spec, e.hooks())
		return err
	})
	if remote {
		if err == nil && res.Stopped == "" {
			e.reconcile()
		}
		return res, err
	}
	dev, err := e.device()
	if err != nil {
		return nil, err
	}
	// The observer runs on the measuring goroutine, once per ladder rung.
	observe := func(pat mem.Pattern, readFrac float64, p surface.Point) {
		e.j.publishPoint(PointEvent{
			Label:     fmt.Sprintf("%s/r%.2g@%.2g", surface.PatternLabel(pat), readFrac, p.Rate),
			GBps:      p.AchievedGBps,
			Feasible:  true,
			LatencyNs: p.LatencyNs,
		})
	}
	return core.RunSurfaceShard(ctx, dev, cfg, lo, hi, observe)
}

// sweep evaluates the slice [lo, hi) of a grid's flat enumeration and
// ranks it byte-identically to dse.Explore over the same points; a
// fleet evaluator is only asked for whole grids. Either way the run
// cache takes part: local sweeps reuse cached points and cache fresh
// ones, fleet sweeps prime it with the workers' canonical results.
// cachedPoints counts the points answered from a cache; stopped is the
// stop tag of a canceled or deadline-expired sweep, whose ranking
// covers the points evaluated before the stop.
func (e *evaluator) sweep(ctx context.Context, base core.Config, space dse.Space, op kernel.Op, lo, hi int) (ex *dse.Exploration, cachedPoints int, stopped string, err error) {
	remote, err := e.onFleet(ctx, func(fl *cluster.Coordinator) (err error) {
		spec := cluster.SweepSpec{Target: e.target, Base: base, Space: space, Op: op, TimeoutMS: e.timeoutMS}
		ex, cachedPoints, stopped, err = fl.Sweep(ctx, spec, e.hooks())
		return err
	})
	if !remote {
		return e.sweepLocal(ctx, space.ConfigsRange(base, lo, hi), op)
	}
	if err != nil {
		return nil, 0, "", err
	}
	if e.s.cache.enabled() {
		for _, p := range ex.Ranked {
			if p.Result != nil {
				e.s.cache.put(p.Config.Fingerprint(e.target), p.Result)
			}
		}
	}
	if stopped == "" {
		e.reconcile()
	}
	return ex, cachedPoints, stopped, nil
}

// sweepLocal evaluates cfgs on this process: points already in the run
// cache are reused, the misses fan out over dse.EvalParallelContext,
// and fresh feasible results go back into the cache.
func (e *evaluator) sweepLocal(ctx context.Context, cfgs []core.Config, op kernel.Op) (*dse.Exploration, int, string, error) {
	cache := e.s.cache
	pts := make([]dse.Point, len(cfgs))
	fps := make([]string, len(cfgs))
	var missCfgs []core.Config
	var missLabels []string
	var missIdx []int
	cachedPoints := 0
	for i, cfg := range cfgs {
		// With the cache disabled, skip fingerprinting and lookups
		// entirely.
		if cache.enabled() {
			fps[i] = cfg.Fingerprint(e.target)
			if res, ok := cache.get(fps[i]); ok {
				pts[i] = dse.Point{Label: dse.ConfigLabel(cfg), Config: cfg, Result: rehome(res, cfg)}
				cachedPoints++
				e.j.publishPoint(PointEvent{Label: pts[i].Label, GBps: pts[i].GBps(op), Feasible: true, Cached: true})
				continue
			}
		}
		missCfgs = append(missCfgs, cfg)
		missLabels = append(missLabels, dse.ConfigLabel(cfg))
		missIdx = append(missIdx, i)
	}

	stopped := runstate.FromContext(ctx)
	if len(missCfgs) > 0 && stopped == "" {
		// A factory failure is an infrastructure error, not an infeasible
		// design point: record it and fail the whole job instead of
		// reporting a successful sweep full of phantom infeasibles.
		var factoryErr atomic.Pointer[error]
		factory := func() (device.Device, error) {
			dev, err := e.s.opts.NewDevice(e.target)
			if err != nil {
				factoryErr.CompareAndSwap(nil, &err)
			}
			return dev, err
		}
		// onPoint runs concurrently on the sweep workers; tracker and
		// event log are safe for that.
		onPoint := func(_ int, p dse.Point) {
			pe := PointEvent{Label: p.Label, GBps: p.GBps(op), Feasible: p.Err == nil}
			if p.Err != nil {
				pe.Error = p.Err.Error()
			}
			e.j.publishPoint(pe)
		}
		var fresh []dse.Point
		// The batch span brackets the whole parallel fan-out; each grid
		// point records its own child span inside the dse workers.
		workers := e.s.opts.SweepWorkers
		bctx, bsp := obs.StartSpan(ctx, "sweep.batch",
			"points", fmt.Sprint(len(missCfgs)), "workers", fmt.Sprint(workers))
		fresh, stopped = dse.EvalParallelContext(bctx, factory, missCfgs, missLabels, workers, onPoint)
		bsp.End()
		if errp := factoryErr.Load(); errp != nil {
			// EvalParallelContext marks the claimed point whenever the
			// factory fails, so a recorded error always means unevaluated
			// points.
			return nil, 0, "", *errp
		}
		for k, p := range fresh {
			i := missIdx[k]
			pts[i] = p
			// Unevaluated holes (canceled before the point was claimed)
			// must not poison the cache with nil results.
			if p.Evaluated() && p.Err == nil {
				cache.put(fps[i], p.Result)
			}
		}
	}
	if stopped != "" {
		pts = dse.EvaluatedPoints(pts)
	}
	ex := dse.Rank(pts, op)
	return &ex, cachedPoints, stopped, nil
}

// reconcile completes a finished fleet job's progress: worker event
// streams are telemetry (a slow stream drops point events), so the
// counter can undershoot, but a done job always reads done == total.
func (e *evaluator) reconcile() {
	p := e.j.prog.Snapshot()
	e.j.prog.Step(p.Total - p.Done)
}

// hooks adapts the coordinator's callbacks onto the job's progress
// tracker and event log: forwarded worker point events become ordinary
// point/progress events (one merged NDJSON stream), shard scheduling
// updates become shard events, and a retried shard's already-streamed
// points are rewound so aggregate progress never counts an evaluation
// unit twice. Both callbacks arrive concurrently from shard goroutines;
// the tracker and event log are safe for that.
func (e *evaluator) hooks() cluster.FleetHooks {
	j, reg := e.j, e.s.reg
	return cluster.FleetHooks{
		OnPoint: func(p cluster.PointEvent) { j.publishPoint(PointEvent(p)) },
		OnShard: func(u cluster.ShardUpdate) {
			if u.RewindPoints > 0 {
				j.prog.Step(-u.RewindPoints)
			}
			// Shard tail latency: one observation per finished attempt,
			// split by outcome so the tail of retried shards is visible.
			if reg != nil && u.ElapsedMS > 0 && u.State != "assigned" {
				reg.Histogram("mpstream_cluster_shard_seconds",
					"Wall-clock duration of fleet shard attempts, by outcome.",
					obs.DurationBuckets, "state", string(u.State)).
					Observe(float64(u.ElapsedMS) / 1000)
			}
			j.publishShard(u)
		},
	}
}
