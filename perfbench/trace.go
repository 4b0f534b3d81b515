package main

import (
	"fmt"
	"sync"
	"time"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/gpusim"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
	"mpstream/internal/sim/cache"
	"mpstream/internal/sim/dram"
	"mpstream/internal/sim/mem"
)

// deviceTracer times the device layer from outside the program: every
// device a traced server builds is wrapped so that Compile and
// Compiled.Seconds report their durations here.
type deviceTracer struct {
	mu      sync.Mutex
	build   time.Duration // constructing devices
	builds  int
	compile time.Duration
	timing  time.Duration
	calls   int
	repeats int
	seen    map[string]bool // target|kernel|exec of every Seconds call
}

func newDeviceTracer() *deviceTracer { return &deviceTracer{seen: map[string]bool{}} }

// buildTime is the total time spent constructing devices.
func (t *deviceTracer) buildTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.build
}

// newDevice is a service.Options.NewDevice factory that wraps the paper's
// targets.
func (t *deviceTracer) newDevice(id string) (device.Device, error) {
	t0 := time.Now()
	dev, err := targets.ByID(id)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.build += d
	t.builds++
	t.mu.Unlock()
	return &tracedDevice{Device: dev, mem: dev.(device.MemorySystem), t: t}, nil
}

func (t *deviceTracer) addCompile(d time.Duration) {
	t.mu.Lock()
	t.compile += d
	t.mu.Unlock()
}

func (t *deviceTracer) addTiming(d time.Duration, key string) {
	t.mu.Lock()
	t.timing += d
	t.calls++
	if t.seen[key] {
		t.repeats++
	}
	t.seen[key] = true
	t.mu.Unlock()
}

// tracedDevice forwards to a target, timing Compile. It keeps the
// target's memory system visible, which the surface layer asserts.
type tracedDevice struct {
	device.Device
	mem device.MemorySystem
	t   *deviceTracer
}

func (d *tracedDevice) MemModel() *dram.Model { return d.mem.MemModel() }

func (d *tracedDevice) Compile(k kernel.Kernel) (device.Compiled, error) {
	t0 := time.Now()
	c, err := d.Device.Compile(k)
	d.t.addCompile(time.Since(t0))
	if err != nil {
		return nil, err
	}
	return &tracedCompiled{Compiled: c, target: d.Info().ID, t: d.t}, nil
}

// tracedCompiled times Seconds, the device timing model.
type tracedCompiled struct {
	device.Compiled
	target string
	t      *deviceTracer
}

func (c *tracedCompiled) Seconds(e device.Exec) (float64, error) {
	t0 := time.Now()
	s, err := c.Compiled.Seconds(e)
	d := time.Since(t0)
	c.t.addTiming(d, fmt.Sprintf("%s|%+v|%+v", c.target, c.Kernel(), e))
	return s, err
}

// metrics reports the tracer's totals: device construction per device,
// compile and timing per evaluation.
func (t *deviceTracer) metrics(evals int, m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(evals)
	m["device.new_ms"] = ratio(ms(t.build), float64(t.builds))
	m["device.compile_ms"] = ratio(ms(t.compile), n)
	m["device.timing_ms"] = ratio(ms(t.timing), n)
	m["device.timing_calls"] = float64(t.calls)
	m["device.timing_repeat_ratio"] = ratio(float64(t.repeats), float64(t.calls))
}

// functionalReplay re-executes the functional path of one verified run
// outside the program: buffer allocation and fill plus kernel.Apply for
// every op and repetition (functional), and core.VerifySlice per op
// (verify), the same work core.Run does around the timing model.
func functionalReplay(cfg core.Config) (functional, verify time.Duration, err error) {
	cfg = cfg.Canonical()
	elems := int(cfg.ArrayBytes / int64(cfg.Type.Bytes()))
	t0 := time.Now()
	a, b, c := makeArray(cfg.Type, elems, 0), makeArray(cfg.Type, elems, core.BInit), makeArray(cfg.Type, elems, core.CInit)
	for _, op := range cfg.Ops {
		var carg any
		if op.InputStreams() == 2 {
			carg = c
		}
		for i := 0; i < cfg.NTimes; i++ {
			if err := kernel.Apply(op, cfg.Scalar, a, b, carg); err != nil {
				return 0, 0, err
			}
		}
		tv := time.Now()
		if err := core.VerifySlice(a, kernel.Expected(op, cfg.Scalar, core.BInit, core.CInit), 0); err != nil {
			return 0, 0, err
		}
		verify += time.Since(tv)
	}
	return time.Since(t0) - verify, verify, nil
}

func makeArray(dt kernel.DataType, n int, v float64) any {
	if dt == kernel.Float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(v)
	}
	return s
}

// substrateCase is one timing question: a kernel and its exec on a
// target.
type substrateCase struct {
	target string
	k      kernel.Kernel
	exec   device.Exec
}

// targetConfig is one run configuration on one target.
type targetConfig struct {
	target string
	cfg    core.Config
}

// substrateCases lists the distinct timing questions a set of runs
// asks, in order.
func substrateCases(runs []targetConfig) ([]substrateCase, error) {
	seen := map[string]bool{}
	var out []substrateCase
	for _, r := range runs {
		dev, err := targets.ByID(r.target)
		if err != nil {
			return nil, err
		}
		cfg := r.cfg.Canonical()
		for _, op := range cfg.Ops {
			k := kernel.Kernel{Op: op, Type: cfg.Type, VecWidth: cfg.VecWidth, Loop: cfg.Loop, Attrs: cfg.Attrs}
			if cfg.OptimalLoop {
				k.Loop = dev.Info().OptimalLoop
			}
			sc := substrateCase{r.target, k, device.Exec{ArrayBytes: cfg.ArrayBytes, Pattern: cfg.Pattern}}
			key := fmt.Sprintf("%+v", sc)
			if !seen[key] {
				seen[key] = true
				out = append(out, sc)
			}
		}
	}
	return out, nil
}

// maxReplayReqs caps the requests replayed per case; the per-unit
// times are rates and the counts stay deterministic.
const maxReplayReqs = 1 << 17

// substrateTotals accumulates the simulator substrate replay.
type substrateTotals struct {
	memTime, cacheTime, dramTime time.Duration
	reqs, accesses, probes, hits uint64
	txns, rowHits, rowMisses     uint64
	turnarounds                  uint64
}

// replay drives one case through the simulator substrate the way the
// targets' timing models do: address-stream generation (sim/mem), cache
// filtering on the CPU and GPU (sim/cache) and DRAM service (sim/dram),
// timing each stage on its own materialized input.
func (st *substrateTotals) replay(c substrateCase) error {
	dev, err := targets.ByID(c.target)
	if err != nil {
		return err
	}
	elems := c.exec.Elems(c.k)
	eb := c.k.ElemBytes()
	window := eb
	var cc *cache.Config
	switch c.target {
	case "cpu":
		cfg := cpusim.DefaultConfig().LLC
		cc, window = &cfg, max(eb, cfg.LineBytes)
	case "gpu":
		cfg := gpusim.DefaultConfig().L2
		cc = &cfg
		if c.exec.Pattern.EffectiveStrideElems(elems) == 1 {
			window = max(eb, gpusim.DefaultConfig().CoalesceBytes)
		}
	}
	src, err := device.KernelSource(c.k.Op, elems, eb, c.exec.Pattern, window)
	if err != nil {
		return err
	}
	reqs := make([]mem.Request, min(src.Remaining(), maxReplayReqs))
	t0 := time.Now()
	n := mem.Fill(mem.NewLimit(src, len(reqs)), reqs)
	st.memTime += time.Since(t0)
	reqs = reqs[:n]
	st.reqs += uint64(n)

	toDRAM := reqs
	if cc != nil {
		ca := cache.New(*cc)
		f := cache.NewMissFilter(ca, &sliceSource{reqs: reqs})
		var out []mem.Request
		buf := make([]mem.Request, 4096)
		t0 = time.Now()
		for {
			k := mem.Fill(f, buf)
			out = append(out, buf[:k]...)
			if k < len(buf) {
				break
			}
		}
		st.cacheTime += time.Since(t0)
		s := ca.Stats()
		st.accesses += s.Accesses
		st.probes += s.LineProbes
		st.hits += s.Hits
		toDRAM = out
	}

	model := dev.(device.MemorySystem).MemModel().Clone()
	t0 = time.Now()
	res := model.Service(&sliceSource{reqs: toDRAM})
	st.dramTime += time.Since(t0)
	st.txns += res.Txns
	st.rowHits += res.RowHits
	st.rowMisses += res.RowMisses
	st.turnarounds += res.Turnarounds
	return nil
}

func (st *substrateTotals) metrics(m map[string]float64) {
	m["mem.ns_per_req"] = ratio(float64(st.memTime.Nanoseconds()), float64(st.reqs))
	m["cache.ns_per_access"] = ratio(float64(st.cacheTime.Nanoseconds()), float64(st.accesses))
	m["cache.hit_ratio"] = ratio(float64(st.hits), float64(st.probes))
	m["dram.ns_per_txn"] = ratio(float64(st.dramTime.Nanoseconds()), float64(st.txns))
	m["dram.txns"] = float64(st.txns)
	m["dram.row_hit_ratio"] = ratio(float64(st.rowHits), float64(st.rowHits+st.rowMisses))
	m["dram.turnarounds"] = float64(st.turnarounds)
}

// sliceSource replays materialized requests as a mem.Source.
type sliceSource struct {
	reqs []mem.Request
	pos  int
}

func (s *sliceSource) Remaining() int { return len(s.reqs) - s.pos }

func (s *sliceSource) Next() (mem.Request, bool) {
	if s.pos >= len(s.reqs) {
		return mem.Request{}, false
	}
	s.pos++
	return s.reqs[s.pos-1], true
}

func (s *sliceSource) NextBatch(dst []mem.Request) int {
	n := copy(dst, s.reqs[s.pos:])
	s.pos += n
	return n
}
