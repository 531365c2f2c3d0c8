package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// The traced run. It measures the same requests as the untraced run,
// with every workload metric wrapped in a timedMetric and a telemetry
// registry attached, and adds the layer probes. Every traced run prints
// every per-layer metric: a layer the workload exercises is measured on
// the workload's own requests, any other layer by its probe (the detail
// line lists which).

// sramWorkloads are the metrics the sram.* per-layer rows cover.
var sramWorkloads = []string{"rnm", "wnm", "readcurrent", "dualread", "access"}

// probeEvals is how many points a metric probe evaluates.
const probeEvals = 256

// registrySums adds up the spice counters of a set of registries.
type registrySums struct {
	solves, newtonIters, newtonSolves, warmHits, warmFalls float64
	chunkP50s                                              []float64
}

func (s *registrySums) add(reg *telemetry.Registry) {
	for _, p := range reg.Snapshot() {
		switch {
		case p.Scope == "spice" && p.Name == "solves_total":
			s.solves += p.Value
		case p.Scope == "spice" && p.Name == "newton_iterations":
			s.newtonIters += p.Sum
			s.newtonSolves += float64(p.Count)
		case p.Scope == "spice" && p.Name == "warm_hit_total":
			s.warmHits += p.Value
		case p.Scope == "spice" && p.Name == "warm_fallback_total":
			s.warmFalls += p.Value
		case p.Scope == "mc" && p.Name == "chunk_seconds" && p.Count > 0:
			s.chunkP50s = append(s.chunkP50s, p.P50)
		}
	}
}

// setSpice reports the solver ratios of the summed registries.
func (s *registrySums) setSpice(rep *report) {
	rep.set("spice.newton_iters_per_solve", ratio(s.newtonIters, s.newtonSolves), "count")
	rep.set("spice.warm_hit_rate", ratio(s.warmHits, s.warmHits+s.warmFalls), "ratio")
}

// ratio is a / b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// metricUse accumulates the timed calls into one workload's metric.
type metricUse struct {
	evals, calls float64
	busy         time.Duration
	solves       float64
}

// sramRows reports sram.eval_us / sram.solves_per_eval for every
// workload: from uses where the run exercised the metric, from a probe
// otherwise.
func sramRows(rep *report, uses map[string]*metricUse, rng *rand.Rand) error {
	source := map[string]string{}
	for _, name := range sramWorkloads {
		u := uses[name]
		source[name] = "run"
		if u == nil || u.evals <= 0 {
			p, err := probeMetric(name, rng, probeEvals)
			if err != nil {
				return err
			}
			var sums registrySums
			sums.add(p.reg)
			u = &metricUse{evals: float64(p.metric.evals.Load()), calls: float64(p.metric.calls.Load()),
				busy: p.metric.busy(0, math.MaxInt64), solves: sums.solves}
			source[name] = "probe"
		}
		rep.set("sram.eval_us."+name, float64(u.busy.Microseconds())/u.evals, "us")
		rep.set("sram.solves_per_eval."+name, u.solves/u.evals, "count")
	}
	rep.detail["sram_source"] = source
	return nil
}

// probeAll runs the probes every traced run shares.
func probeAll(rep *report, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	if err := probeSpice(rep, rng); err != nil {
		return err
	}
	probeMC(rep, seed)
	probeTelemetry(rep)
	rep.set("bench.calibration_ns", calibrate(), "ns")
	return nil
}

// runEstimationTraced alternates untraced and traced passes over the same
// requests (the trace overhead is their ratio), derives the layer rows
// from the traced passes, and runs the probes.
func runEstimationTraced(ctx context.Context, cfg runConfig, rep *report, set []estSpec, passSeconds float64) error {
	const probeSeconds = 8
	pairs := max(1, int((cfg.seconds-probeSeconds)/(2*passSeconds)))
	var plain, traced []pass
	var gaps []float64
	for i := 0; i < pairs; i++ {
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		seeds := passSeeds(cfg.seed, i, set)
		for _, tr := range order {
			p, err := runPass(ctx, set, seeds, tr, nil)
			if err != nil {
				return err
			}
			checkPass(rep, p)
			for j := 1; j < len(p.ests); j++ {
				gaps = append(gaps, p.ests[j].start.Sub(p.ests[j-1].end).Seconds())
			}
			if tr {
				traced = append(traced, p)
			} else {
				plain = append(plain, p)
			}
		}
	}
	wallOf := func(ps []pass) []float64 {
		var out []float64
		for _, p := range ps {
			out = append(out, p.wall.Seconds())
		}
		return out
	}
	// The traced pass of each pair must compute what the untraced one did.
	for i := range traced {
		for j, e := range traced[i].ests {
			if f := plain[i].ests[j]; e.err == nil && f.err == nil &&
				(math.Float64bits(e.res.Pf) != math.Float64bits(f.res.Pf) || e.res.TotalSims != f.res.TotalSims) {
				rep.incorrect("%s seed %d: traced run gave Pf %v and %d sims, untraced %v and %d",
					e.spec, e.seed, e.res.Pf, e.res.TotalSims, f.res.Pf, f.res.TotalSims)
			}
		}
	}
	rep.set("bench.trace_overhead_frac", median(wallOf(traced))/median(wallOf(plain))-1, "ratio")
	rep.set("bench.gen_lag_s_p99", quantile(gaps, 0.99), "s")
	rep.detail["trace_pairs"] = pairs

	// Layer rows from the traced passes.
	var sums registrySums
	uses := map[string]*metricUse{}
	var s1, s2, s2busy, s2cap, gibbsStage1, gibbsK float64
	var sims int64
	var wall time.Duration
	var gibbsSamples [][]float64
	var gibbsSpec *estimate
	procs := float64(runtime.GOMAXPROCS(0))
	for _, p := range traced {
		for i := range p.ests {
			e := &p.ests[i]
			if e.err != nil {
				continue
			}
			var one registrySums
			one.add(e.reg)
			sums.add(e.reg)
			u := uses[e.spec.Workload]
			if u == nil {
				u = &metricUse{}
				uses[e.spec.Workload] = u
			}
			u.evals += float64(e.metric.evals.Load())
			u.calls += float64(e.metric.calls.Load())
			u.busy += e.metric.busy(0, math.MaxInt64)
			u.solves += one.solves

			r := e.res
			s1 += r.Stage1Seconds
			s2 += r.Stage2Seconds
			sims += r.TotalSims
			wall += e.wall()
			end := e.end.Sub(e.metric.epoch)
			from := end - time.Duration(r.Stage2Seconds*float64(time.Second))
			s2busy += e.metric.busy(from, end).Seconds()
			s2cap += procs * r.Stage2Seconds
			if e.spec.Method == repro.GS || e.spec.Method == repro.GC {
				gibbsStage1 += float64(r.Stage1Sims)
				gibbsK += float64(e.spec.K)
				if gibbsSpec == nil {
					gibbsSpec, gibbsSamples = e, r.GibbsSamples
				}
			}
		}
	}
	var evals, calls float64
	for _, u := range uses {
		evals += u.evals
		calls += u.calls
	}
	n := float64(len(traced))
	rep.set("sram.batch_size_mean", ratio(evals, calls), "count")
	rep.set("repro.stage1_s", s1/n, "s")
	rep.set("repro.stage2_s", s2/n, "s")
	rep.set("repro.sims_per_s", float64(sims)/wall.Seconds(), "1/s")
	rep.set("gibbs.stage1_frac", ratio(s1, s1+s2), "ratio")
	rep.set("gibbs.probes_per_sample", ratio(gibbsStage1, gibbsK), "count")
	rep.set("mc.stage2_busy_frac", ratio(s2busy, s2cap), "ratio")
	rep.set("mc.chunk_ms_p50", median(sums.chunkP50s)*1e3, "ms")
	sums.setSpice(rep)

	rng := rand.New(rand.NewSource(cfg.seed))
	if err := sramRows(rep, uses, rng); err != nil {
		return err
	}
	if gibbsSpec == nil {
		return fmt.Errorf("traced run has no Gibbs estimate to probe")
	}
	if err := probeStart(ctx, rep, gibbsSpec.spec.Workload, gibbsSpec.seed, gibbsSamples); err != nil {
		return err
	}
	if err := probeAll(rep, cfg.seed); err != nil {
		return err
	}
	return probeServiceLayers(ctx, rep, cfg.seed)
}

// probeServiceLayers measures the jobs, dist and event layers for a
// workload that does not use them: one block of the service mix.
func probeServiceLayers(ctx context.Context, rep *report, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pool := []jobs.Request{freshRequest(rng, false), freshRequest(rng, true)}
	sched := makeSchedule(rng, 1, 4*time.Second, pool)
	sv, err := runTracedSchedule(ctx, rep, pool, sched)
	if err != nil {
		return err
	}
	sv.setServiceRows(rep)
	rep.detail["service_layers_source"] = "probe"
	return nil
}

// tracedService is a service run with the workers' metrics wrapped.
type tracedService struct {
	run *scheduleRun
	// workerSims counts the evaluations the workers made during the
	// schedule; overhead holds, per re-run distributed request, its
	// distributed run time over its local run time, minus one.
	workerSims int64
	overhead   []float64

	mu      sync.Mutex
	workers []*timedMetric // guarded by mu
}

// resolve is the workers' workload registry: every metric it returns is
// wrapped, so the workers' evaluations can be counted.
func (t *tracedService) resolve(name string) (repro.Metric, error) {
	m, err := repro.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	w := newTimedMetric(m, 0)
	t.mu.Lock()
	t.workers = append(t.workers, w)
	t.mu.Unlock()
	return w, nil
}

func (t *tracedService) workerEvals() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, w := range t.workers {
		n += w.evals.Load()
	}
	return n
}

// runTracedSchedule starts a traced stack, warms its cache, replays the
// schedule, and re-runs a few distributed requests locally to price the
// distribution.
func runTracedSchedule(ctx context.Context, rep *report, pool []jobs.Request, sched []scheduled) (*tracedService, error) {
	t := &tracedService{}
	s, err := startReady(ctx, t.resolve)
	if err != nil {
		return nil, err
	}
	originals, err := warm(ctx, s, pool)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	before := t.workerEvals()
	run, err := runSchedule(ctx, s, sched)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	t.workerSims = t.workerEvals() - before
	if err := s.close(); err != nil {
		return nil, err
	}
	run.check(rep, originals)
	t.run = run

	const localReruns = 3
	for _, o := range run.jobs {
		if len(t.overhead) == localReruns {
			break
		}
		if o.sched.Kind != "dist" || o.snap.State != jobs.StateDone || o.snap.Cached {
			continue
		}
		m, err := repro.WorkloadByName(o.sched.Req.Workload)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := repro.EstimateContext(ctx, m, o.sched.Req.Options()); err != nil {
			return nil, fmt.Errorf("local re-run of a distributed request: %w", err)
		}
		local := time.Since(start).Seconds()
		runS, _ := jobTimes(o.snap)
		t.overhead = append(t.overhead, runS/local-1)
	}
	return t, nil
}

// jobTimes returns a job's run time (Finished − Started) and queue wait
// (Started − Created) in seconds.
func jobTimes(s jobs.Snapshot) (run, wait float64) {
	created, _ := time.Parse(time.RFC3339Nano, s.Created)
	started, _ := time.Parse(time.RFC3339Nano, s.Started)
	finished, _ := time.Parse(time.RFC3339Nano, s.Finished)
	return finished.Sub(started).Seconds(), started.Sub(created).Seconds()
}

// setServiceRows reports the jobs, dist and event-bus rows.
func (t *tracedService) setServiceRows(rep *report) {
	run := t.run
	var submit, waits, runs []float64
	var distJobs, distSims float64
	for _, o := range run.jobs {
		submit = append(submit, float64(o.submitRT.Nanoseconds())/1e6)
		if o.err != nil || o.snap.Cached {
			continue
		}
		r, w := jobTimes(o.snap)
		runs = append(runs, r)
		waits = append(waits, w)
		if o.sched.Kind == "dist" && o.snap.Result != nil {
			distJobs++
			distSims += float64(o.snap.Result.TotalSims)
		}
	}
	n := float64(len(run.jobs))
	rep.set("jobs.submit_ms_p50", median(submit), "ms")
	rep.set("jobs.queue_wait_s_p50", median(waits), "s")
	rep.set("jobs.queue_wait_s_tail", quantile(waits, tailQuantile(len(waits))), "s")
	rep.set("jobs.run_s_p50", median(runs), "s")
	rep.set("jobs.cache_hit_frac", float64(run.cacheHits)/n, "ratio")
	rep.set("jobs.rejected", run.rejected, "count")
	rep.set("dist.overhead_frac", median(t.overhead), "ratio")
	rep.set("dist.sim_amplification", ratio(float64(t.workerSims), distSims), "ratio")
	rep.set("dist.leases_per_job", ratio(float64(run.leases), distJobs), "count")
	rep.set("dist.leases_expired", float64(run.expired), "count")
	rep.set("telemetry.events_per_job", float64(run.events)/n, "count")
	rep.set("telemetry.bus_dropped", float64(run.busDropped), "count")
	rep.detail["queue_wait_tail_quantile"] = tailQuantile(len(waits))
}
