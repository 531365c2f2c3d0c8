package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/spice"
	"repro/internal/sram"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file holds the layer probes of the traced run: each one calls a
// layer's public functions directly, on inputs drawn from the run's seed,
// and times them from outside.

// probeTrials is how many times a probe repeats its timed loop; probes
// report the median trial.
const probeTrials = 7

// timeTrials runs fn probeTrials times and returns the median wall time
// of one call.
func timeTrials(fn func()) time.Duration {
	ts := make([]float64, probeTrials)
	for i := range ts {
		start := time.Now()
		fn()
		ts[i] = float64(time.Since(start))
	}
	return time.Duration(median(ts))
}

// probeSink keeps probe results live.
var probeSink float64

// probeSpice times the device model and the three solver entry points on
// the 6-T cell at seeded variation points: MOSFET.Eval, a cold SolveDC,
// SolveDCFrom warm-started at the nominal solution, and an access-bias
// SolveTran.
func probeSpice(rep *report, rng *rand.Rand) error {
	cell := sram.Default90nm()
	vdd := cell.VDD

	// Device model on random bias points.
	dev := spice.NewCircuit().AddMOSFET("m", "d", "g", "s", "b", cell.Driver)
	const nBias = 4096
	bias := make([][4]float64, nBias)
	for i := range bias {
		bias[i] = [4]float64{rng.Float64() * vdd, rng.Float64() * vdd, rng.Float64() * 0.1, 0}
	}
	per := timeTrials(func() {
		for _, b := range bias {
			id, _, _, _, _ := dev.Eval(b[0], b[1], b[2], b[3])
			probeSink += id
		}
	})
	rep.set("spice.mos_eval_ns", float64(per.Nanoseconds())/nBias, "ns")

	// DC solves of the cell in its read configuration.
	ckt := spice.NewCircuit()
	ckt.AddVSource("vdd", "vdd", "0", vdd)
	ckt.AddVSource("vwl", "wl", "0", vdd)
	ckt.AddVSource("vbl", "bl", "0", vdd)
	ckt.AddVSource("vblb", "blb", "0", vdd)
	ms := []*spice.MOSFET{
		ckt.AddMOSFET("m1", "q", "qb", "0", "0", cell.Driver),
		ckt.AddMOSFET("m2", "qb", "q", "0", "0", cell.Driver),
		ckt.AddMOSFET("m3", "bl", "wl", "q", "0", cell.Access),
		ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", cell.Access),
		ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", cell.Load),
		ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", cell.Load),
	}
	opts := &spice.DCOptions{InitialGuess: map[string]float64{"q": 0, "qb": vdd}}
	anchor, err := ckt.SolveDC(opts)
	if err != nil {
		return fmt.Errorf("nominal DC solve: %w", err)
	}
	const nDC = 64
	dvth := make([][6]float64, nDC)
	for i := range dvth {
		for j := range dvth[i] {
			dvth[i][j] = cell.SigmaVth * rng.NormFloat64()
		}
	}
	apply := func(d [6]float64) {
		for j, m := range ms {
			m.DeltaVth = d[j]
		}
	}
	var solveErr error
	var coldIters, warmIters int
	cold := timeTrials(func() {
		coldIters = 0
		for _, d := range dvth {
			apply(d)
			op, err := ckt.SolveDC(opts)
			if err != nil {
				solveErr = err
				return
			}
			coldIters += op.NewtonIterations()
		}
	})
	warm := timeTrials(func() {
		warmIters = 0
		for _, d := range dvth {
			apply(d)
			op, err := ckt.SolveDCFrom(anchor, 0, nil, opts)
			if err != nil {
				solveErr = err
				return
			}
			warmIters += op.NewtonIterations()
		}
	})
	if solveErr != nil {
		return fmt.Errorf("DC solve probe: %w", solveErr)
	}
	rep.set("spice.dc_solve_cold_us", float64(cold.Microseconds())/nDC, "us")
	rep.set("spice.dc_solve_warm_us", float64(warm.Microseconds())/nDC, "us")
	rep.detail["spice_probe_newton_iters_cold"] = float64(coldIters) / nDC
	rep.detail["spice_probe_newton_iters_warm"] = float64(warmIters) / nDC

	// Access transient: the bitline discharge of the fast-read cell, the
	// circuit the access workload simulates.
	fast := sram.FastRead90nm()
	const nTran = 8
	tran := timeTrials(func() {
		for i := 0; i < nTran; i++ {
			if err := accessTransient(fast, fast.SigmaVth*rng.NormFloat64(), fast.SigmaVth*rng.NormFloat64()); err != nil {
				solveErr = err
				return
			}
		}
	})
	if solveErr != nil {
		return fmt.Errorf("transient probe: %w", solveErr)
	}
	rep.set("spice.tran_solve_us", float64(tran.Microseconds())/nTran, "us")
	return nil
}

// accessTransient runs one access-bias transient: the wordline rises and
// the cell discharges its bitline until the sense threshold.
func accessTransient(c *sram.Cell, dv1, dv3 float64) error {
	const wlEdge, sense = 50e-12, 0.1
	ckt := spice.NewCircuit()
	ckt.AddVSource("vdd", "vdd", "0", c.VDD)
	ckt.AddVSource("vwl", "wl", "0", 0).Waveform = spice.StepWaveform(0, c.VDD, wlEdge, 20e-12)
	ckt.AddCapacitor("cbl", "bl", "0", 10e-15)
	ckt.AddCapacitor("cblb", "blb", "0", 10e-15)
	ckt.AddCapacitor("cq", "q", "0", 0.2e-15)
	ckt.AddCapacitor("cqb", "qb", "0", 0.2e-15)
	ckt.AddMOSFET("m1", "q", "qb", "0", "0", c.Driver).DeltaVth = dv1
	ckt.AddMOSFET("m2", "qb", "q", "0", "0", c.Driver)
	ckt.AddMOSFET("m3", "bl", "wl", "q", "0", c.Access).DeltaVth = dv3
	ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", c.Access)
	ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", c.Load)
	ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", c.Load)
	return ckt.SolveTran(spice.TranOptions{
		Stop: 1e-9, Step: 2e-12, Method: spice.BackwardEuler,
		InitialConditions: map[string]float64{"bl": c.VDD, "blb": c.VDD, "q": 0, "qb": c.VDD},
	}, func(p spice.TranPoint) bool {
		return p.T <= wlEdge || p.OP.Voltage("blb")-p.OP.Voltage("bl") < sense
	})
}

// metricProbe is the sram layer measured directly: a workload metric
// evaluated on seeded standard-Normal points, in KernelBatch groups on
// one goroutine, with a telemetry registry attached to its solver.
type metricProbe struct {
	metric *timedMetric
	reg    *telemetry.Registry
}

// probeMetric evaluates the named workload on n seeded points.
func probeMetric(name string, rng *rand.Rand, n int) (*metricProbe, error) {
	m, err := repro.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	m.Value(make([]float64, m.Dim()))
	p := &metricProbe{metric: newTimedMetric(m, 0), reg: telemetry.New()}
	p.metric.SetTelemetry(p.reg)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, m.Dim())
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	out := make([]float64, mc.KernelBatch)
	for lo := 0; lo < n; lo += mc.KernelBatch {
		hi := min(n, lo+mc.KernelBatch)
		p.metric.ValueBatch(xs[lo:hi], out[:hi-lo])
	}
	return p, nil
}

// probeMC times the evaluation engine's dispatch alone: MapBatch over a
// metric that costs nothing.
func probeMC(rep *report, seed int64) {
	ev := mc.NewEvaluator(repro.MetricFunc{M: 2, F: func([]float64) float64 { return 1 }}, 0)
	const n = 1 << 16
	per := timeTrials(func() {
		vs := mc.MapBatch(ev, seed, 0, n,
			func(rng *rand.Rand, _ int) []float64 { return []float64{rng.NormFloat64(), rng.NormFloat64()} },
			func(_ int, _ []float64, v float64) float64 { return v })
		probeSink += vs[n-1]
	})
	rep.set("mc.dispatch_ns_per_sample", float64(per.Nanoseconds())/n, "ns")
}

// probeTelemetry times Registry.Emit of a progress event — the event a
// run emits most — with no bus, with a bus nobody subscribes to, and with
// one draining subscriber, and counts the allocations of an emit on a
// bus without subscribers.
func probeTelemetry(rep *report) {
	const n = 20000
	fields := map[string]any{"n": 4096, "pf": 2.7e-6, "relerr99": 0.12}
	emit := func(reg *telemetry.Registry) time.Duration {
		return timeTrials(func() {
			for i := 0; i < n; i++ {
				reg.Emit(wire.EvProgress, fields)
			}
		}) / n
	}
	rep.set("telemetry.emit_ns.no_bus", float64(emit(telemetry.New()).Nanoseconds()), "ns")

	reg := telemetry.New()
	bus := telemetry.NewBus(256)
	reg.SetBus(bus)
	rep.set("telemetry.emit_ns.bus_no_subs", float64(emit(reg).Nanoseconds()), "ns")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		reg.Emit(wire.EvProgress, fields)
	}
	runtime.ReadMemStats(&after)
	rep.set("telemetry.emit_allocs.bus_no_subs", float64(after.Mallocs-before.Mallocs)/n, "count")

	sub := bus.Subscribe(1024)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Events() {
		}
	}()
	rep.set("telemetry.emit_ns.bus_1_sub", float64(emit(reg).Nanoseconds()), "ns")
	sub.Close()
	<-drained
	bus.Close()
}

// probeStart times the Algorithm 4 starting-point search and the
// second-stage distortion fit on one request's inputs: the same metric,
// the same seed, and the Gibbs samples its run produced.
func probeStart(ctx context.Context, rep *report, workload string, seed int64, samples [][]float64) error {
	m, err := repro.WorkloadByName(workload)
	if err != nil {
		return err
	}
	counter := mc.NewCounter(m)
	start := time.Now()
	if _, err := model.FindFailurePointContext(ctx, counter, &model.StartOptions{}, rand.New(rand.NewSource(seed))); err != nil {
		return fmt.Errorf("start-point search on %s: %w", workload, err)
	}
	rep.set("model.start_point_s", time.Since(start).Seconds(), "s")
	rep.set("model.start_point_sims", float64(counter.Count()), "count")

	if len(samples) == 0 {
		return fmt.Errorf("no Gibbs samples from the %s run to fit", workload)
	}
	var fitErr error
	const fits = 20
	per := timeTrials(func() {
		for i := 0; i < fits; i++ {
			if _, err := gibbs.FitDistortion(samples); err != nil {
				fitErr = err
			}
		}
	}) / fits
	if fitErr != nil {
		return fmt.Errorf("distortion fit: %w", fitErr)
	}
	rep.set("gibbs.fit_s", per.Seconds(), "s")
	return nil
}
