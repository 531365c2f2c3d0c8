package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
)

// estSpec is one estimation request of a closed-loop workload.
type estSpec struct {
	Workload string       `json:"workload"`
	Method   repro.Method `json:"method"`
	K        int          `json:"k"`
	N        int          `json:"n"`
	Target   float64      `json:"target,omitempty"`
}

func (s estSpec) options(seed int64) repro.Options {
	return repro.Options{Method: s.Method, K: s.K, N: s.N, Target: s.Target, Seed: seed}
}

func (s estSpec) String() string { return s.Workload + "/" + string(s.Method) }

// heavySims runs to a 10% target through the until-target loop. Each
// evaluation costs 0.1–1 ms of DC or transient solves, so the device
// model, Newton and the serial Gibbs chain carry the time. N is only the
// cap; the target stops every run well before it.
var heavySims = []estSpec{
	{Workload: "rnm", Method: repro.GS, K: 600, N: 50000, Target: 0.1},
	{Workload: "wnm", Method: repro.GS, K: 300, N: 50000, Target: 0.1},
	{Workload: "access", Method: repro.GS, K: 300, N: 50000, Target: 0.1},
}

// lightSims runs fixed budgets through the fixed-N stage loop. Each
// evaluation costs about 5 µs, so dispatch, weighting, fitting and chain
// bookkeeping are a visible share. Only method/workload pairs the paper
// calls valid are included.
var lightSims = []estSpec{
	{Workload: "readcurrent", Method: repro.GS, K: 1000, N: 20000},
	{Workload: "readcurrent", Method: repro.GC, K: 1000, N: 20000},
	{Workload: "readcurrent", Method: repro.MNIS, K: 1000, N: 20000},
	{Workload: "dualread", Method: repro.GS, K: 1000, N: 20000},
}

// Wall time of one pass over each set on a 2-core Xeon, which sizes how
// many passes fit in --seconds.
const (
	heavyPassSeconds = 9.5
	lightPassSeconds = 1.9
)

// setupTrials is how many extra times a run builds its metrics to time
// setup_s, on top of the set-up every pass does. They are spread evenly
// over the passes: a set-up takes about a millisecond, and on a shared VM
// its time switches between two levels some 50% apart as the host moves
// the VM, so samples taken in one burst would measure one moment.
const setupTrials = 100

func runHeavySims(ctx context.Context, cfg runConfig, rep *report) error {
	return runEstimation(ctx, cfg, rep, heavySims, heavyPassSeconds)
}

func runLightSims(ctx context.Context, cfg runConfig, rep *report) error {
	return runEstimation(ctx, cfg, rep, lightSims, lightPassSeconds)
}

// deriveSeed maps (seed, i) to a well-separated stream seed.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// setupMetrics builds a fresh metric for every spec and evaluates it
// once at the nominal point, which builds its warm-start anchor pool, and
// reports how long that took.
func setupMetrics(set []estSpec) ([]repro.Metric, time.Duration, error) {
	start := time.Now()
	ms := make([]repro.Metric, len(set))
	for i, s := range set {
		m, err := repro.WorkloadByName(s.Workload)
		if err != nil {
			return nil, 0, err
		}
		m.Value(make([]float64, m.Dim()))
		ms[i] = m
	}
	return ms, time.Since(start), nil
}

// estimate is one finished EstimateContext call.
type estimate struct {
	spec       estSpec
	seed       int64
	res        *repro.Result
	err        error
	start, end time.Time
	metric     *timedMetric     // traced passes only
	reg        *repro.Telemetry // traced passes only
}

func (e estimate) wall() time.Duration { return e.end.Sub(e.start) }

// pass is one closed-loop pass over a set: each request is issued as
// soon as the previous one returns.
type pass struct {
	ests  []estimate
	setup time.Duration
	wall  time.Duration
}

func (p pass) sims() int64 {
	var n int64
	for _, e := range p.ests {
		if e.res != nil {
			n += e.res.TotalSims
		}
	}
	return n
}

// runPass sets up fresh metrics and runs the set once. With traced set,
// every metric is wrapped in a timedMetric and every run gets its own
// telemetry registry.
func runPass(ctx context.Context, set []estSpec, seeds []int64, traced bool, extra map[string]time.Duration) (pass, error) {
	ms, setup, err := setupMetrics(set)
	if err != nil {
		return pass{}, err
	}
	p := pass{setup: setup, ests: make([]estimate, len(set))}
	start := time.Now()
	for i, s := range set {
		e := estimate{spec: s, seed: seeds[i]}
		m := ms[i]
		opts := s.options(seeds[i])
		if traced || extra != nil {
			e.metric = newTimedMetric(m, extra[s.Workload])
			m = e.metric
		}
		if traced {
			e.reg = repro.NewTelemetry()
			opts.Telemetry = e.reg
		}
		e.start = time.Now()
		e.res, e.err = repro.EstimateContext(ctx, m, opts)
		e.end = time.Now()
		p.ests[i] = e
	}
	p.wall = time.Since(start)
	return p, nil
}

// checkPass records every estimate of a pass as an operation: it fails
// on an estimator error or when the workload's reference Pf lies outside
// the estimate's widened 99% interval.
func checkPass(rep *report, p pass) {
	for _, e := range p.ests {
		if e.err != nil {
			rep.op(fmt.Errorf("%s seed %d: %w", e.spec, e.seed, e.err))
			continue
		}
		err := checkReference(e.spec.Workload, e.res.Pf, e.res.RelErr99)
		if err != nil {
			err = fmt.Errorf("%s seed %d: %w", e.spec, e.seed, err)
		}
		rep.op(err)
	}
}

// passSeeds returns the request seeds of pass p: every pass of a run
// makes the same requests with fresh seeds, so a run averages over
// several draws of the workload.
func passSeeds(seed int64, p int, set []estSpec) []int64 {
	seeds := make([]int64, len(set))
	for i := range set {
		seeds[i] = deriveSeed(seed, p*len(set)+i)
	}
	return seeds
}

// runEstimation is the closed-loop runner shared by heavy-sims and
// light-sims: as many passes over the set as fit in --seconds, each with
// its own seeds. The solution time and cost are the sums over the set of
// each request's median over passes.
func runEstimation(ctx context.Context, cfg runConfig, rep *report, set []estSpec, passSeconds float64) error {
	rep.detail["requests"] = set
	if cfg.traced {
		return runEstimationTraced(ctx, cfg, rep, set, passSeconds)
	}

	n := max(1, int(math.Round(cfg.seconds/passSeconds)))
	var setups []float64
	// Per request of the set: its wall time and simulations in every pass
	// where it succeeded. A failed estimate is an operation that failed,
	// not a sample of the request's cost.
	walls := make([][]float64, len(set))
	sims := make([][]float64, len(set))
	var passWalls []float64
	for i := 0; i < n; i++ {
		for t := i * setupTrials / n; t < (i+1)*setupTrials/n; t++ {
			_, d, err := setupMetrics(set)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		p, err := runPass(ctx, set, passSeeds(cfg.seed, i, set), false, nil)
		if err != nil {
			return err
		}
		checkPass(rep, p)
		setups = append(setups, p.setup.Seconds())
		passWalls = append(passWalls, p.wall.Seconds())
		for j, e := range p.ests {
			if e.err == nil {
				walls[j] = append(walls[j], e.wall().Seconds())
				sims[j] = append(sims[j], float64(e.res.TotalSims))
			}
		}
	}
	// A pass at every request's median cost: robust to the occasional
	// seed that makes one request several times slower than usual.
	var solution, solutionSims float64
	for j, s := range set {
		if len(walls[j]) == 0 {
			return fmt.Errorf("%s failed in all %d passes: %v", s, n, rep.failures)
		}
		solution += median(walls[j])
		solutionSims += median(sims[j])
	}
	rep.set("time_to_solution_s", solution, "s")
	rep.set("sims_to_solution", solutionSims, "count")
	rep.set("setup_s", midMean(setups), "s")
	rep.detail["passes"] = n
	rep.detail["pass_seconds"] = passWalls
	rep.detail["setup_samples"] = len(setups)
	return nil
}
