package gibbs

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The engine's determinism guarantee, end to end through Algorithm 5:
// the same seed must produce bit-identical estimates for every worker
// count. The first stage's coordinate updates run in chain order; within
// one update the interval search may probe its two sides on two
// goroutines, but every probe is a pure function of its point, so the
// probe set and the draws are the same. The second stage seeds each
// sample from its index, never from the worker that ran it.
//
// None of these tests skip under -short: the race job runs them at
// -cpu 1,2 so that both the serial and the two-goroutine search run
// under the race detector.

func workerCounts() []int { return []int{1, 2, 7, runtime.GOMAXPROCS(0)} }

func runTwoStage(t *testing.T, workers int) *TwoStageResult {
	t.Helper()
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 7}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(31))
	res, err := TwoStage(counter, TwoStageOptions{
		Coord: Spherical, K: 300, N: 3000, Workers: workers,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoStageWorkerCountInvariant(t *testing.T) {
	ref := runTwoStage(t, 1)
	for _, workers := range workerCounts()[1:] {
		res := runTwoStage(t, workers)
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if res.StdErr != ref.StdErr || res.WeightESS != ref.WeightESS {
			t.Fatalf("workers=%d error bars diverged", workers)
		}
		if res.Stage1Sims != ref.Stage1Sims || res.Stage2Sims != ref.Stage2Sims {
			t.Fatalf("workers=%d stage accounting diverged: %d/%d vs %d/%d",
				workers, res.Stage1Sims, res.Stage2Sims, ref.Stage1Sims, ref.Stage2Sims)
		}
	}
}

func runTwoStageUntil(t *testing.T, workers int) *TwoStageResult {
	t.Helper()
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 7}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(32))
	res, err := TwoStageUntilContext(context.Background(), counter, TwoStageOptions{
		Coord: Spherical, K: 300, Workers: workers,
	}, 0.05, 200, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoStageUntilWorkerCountInvariant(t *testing.T) {
	ref := runTwoStageUntil(t, 1)
	if ref.RelErr99 > 0.05 {
		t.Fatalf("missed target: %v after %d", ref.RelErr99, ref.N)
	}
	for _, workers := range workerCounts()[1:] {
		res := runTwoStageUntil(t, workers)
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if res.Stage2Sims != ref.Stage2Sims {
			t.Fatalf("workers=%d stage-2 cost diverged: %d vs %d",
				workers, res.Stage2Sims, ref.Stage2Sims)
		}
	}
}

// boundProber wraps a metric and records whether any probe landed on a
// search bound, as told by onBound. Value may be called from both sides
// of an interval search at once.
type boundProber struct {
	mc.Metric
	onBound func(x []float64) bool
	hit     atomic.Bool
}

func (b *boundProber) Value(x []float64) float64 {
	if b.onBound(x) {
		b.hit.Store(true)
	}
	return b.Metric.Value(x)
}

// chainCase is one chain configuration of the bit-identity test.
type chainCase struct {
	name   string
	coord  Coord
	metric func() mc.Metric
	start  []float64
	k      int
	// budget, when positive, stops the chain the way Stage1Budget does.
	budget int64
	// check asserts that the run exercised what the case is for.
	check func(t *testing.T, run chainRun, metric mc.Metric)
}

// chainRun is everything a chain run shows that must not depend on the
// worker count.
type chainRun struct {
	samples [][]float64
	// polls is the Counter's count at every Stop poll (one per
	// coordinate update) plus the count after the chain returned, so
	// consecutive differences are the per-update probe counts.
	polls []int64
	// sims is the Counter delta over the whole chain.
	sims int64
	// probeBuckets and probeSum are the chain's own per-update probe
	// counts, as its telemetry records them.
	probeBuckets []telemetry.BucketCount
	probeSum     float64
	recovered    int64
}

func (c chainCase) run(t *testing.T, workers int) (chainRun, mc.Metric) {
	t.Helper()
	metric := c.metric()
	counter := mc.NewCounter(metric)
	reg := telemetry.New()
	var run chainRun
	o := &Options{Telemetry: reg, workers: workers}
	o.Stop = func() bool {
		n := counter.Count()
		run.polls = append(run.polls, n)
		return c.budget > 0 && n >= c.budget
	}
	rng := rand.New(rand.NewSource(41))
	var err error
	switch c.coord {
	case Cartesian:
		run.samples, err = CartesianChainContext(context.Background(), counter, c.start, c.k, o, rng)
	case Spherical:
		run.samples, err = SphericalChainContext(context.Background(), counter, c.start, c.k, o, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	run.sims = counter.Count()
	run.polls = append(run.polls, run.sims)
	s := reg.Scope(wire.ScopeGibbs)
	h := s.Histogram("probes_per_update", probeBuckets)
	run.probeBuckets, run.probeSum = h.Buckets(), h.Sum()
	run.recovered = s.Counter("recovered_total").Value()
	return run, metric
}

func chainCases() []chainCase {
	// A near-full arc: a Cartesian line through its thin passing wedge
	// can be jumped by the doubling walk, so a draw lands in the wedge
	// and the next update starts from a passing point.
	arcStart := []float64{4 * math.Cos(2.8), 4 * math.Sin(2.8)}
	arc := func() mc.Metric { return &surrogate.Arc{R: 3, HalfAngle: 3.1} }
	recovers := func(t *testing.T, run chainRun, _ mc.Metric) {
		if run.recovered == 0 {
			t.Fatal("the recovery scan never fired")
		}
	}
	// Failure is x0 > 2. The Cartesian chain's x1 and x2 intervals are
	// the whole of [−ζ, ζ] and x0's ends on +ζ, so probes land on ±ζ
	// (probes never leave the bounds, so ≥ means "on"). The spherical
	// chain's α0 walk ends on +ζ on every update (x0 → r > 2 as α0 grows),
	// and its radius walk ends on RMax, which the prober sees.
	halfSpace := func(onBound func(x []float64) bool) func() mc.Metric {
		return func() mc.Metric {
			return &boundProber{Metric: &surrogate.Linear{W: []float64{1, 0, 0}, B: 2}, onBound: onBound}
		}
	}
	onZeta := func(x []float64) bool {
		for _, c := range x {
			if math.Abs(c) >= 8 {
				return true
			}
		}
		return false
	}
	rmax := (&Options{}).rmax(3)
	onRMax := func(x []float64) bool { return linalg.Norm2(x) >= rmax*(1-1e-12) }
	onBound := func(t *testing.T, _ chainRun, metric mc.Metric) {
		if !metric.(*boundProber).hit.Load() {
			t.Fatal("no interval reached its bound")
		}
	}
	budget := int64(1500)
	stopsEarly := func(k int) func(t *testing.T, run chainRun, _ mc.Metric) {
		return func(t *testing.T, run chainRun, _ mc.Metric) {
			if len(run.samples) >= k || run.sims < budget {
				t.Fatalf("budget did not stop the chain: %d samples, %d sims", len(run.samples), run.sims)
			}
		}
	}
	return []chainCase{
		{name: "cartesian/arc-recovery", coord: Cartesian, metric: arc, start: arcStart, k: 400, check: recovers},
		{name: "spherical/arc-recovery", coord: Spherical, metric: arc, start: arcStart, k: 400, check: recovers},
		{name: "cartesian/zeta-bound", coord: Cartesian, metric: halfSpace(onZeta), start: []float64{3, 0.5, -0.5}, k: 300, check: onBound},
		{name: "spherical/zeta-bound", coord: Spherical, metric: halfSpace(onRMax), start: []float64{3, 0.5, -0.5}, k: 300, check: onBound},
		{name: "cartesian/budget", coord: Cartesian, metric: arc, start: arcStart, k: 5000, budget: budget, check: stopsEarly(5000)},
		{name: "spherical/budget", coord: Spherical, metric: arc, start: arcStart, k: 5000, budget: budget, check: stopsEarly(5000)},
	}
}

// Chain-level bit identity: the samples, the probes of every update and
// the simulation count are the same whether the interval searches run
// serially or on two goroutines.
func TestChainBitIdenticalAcrossWorkers(t *testing.T) {
	for _, c := range chainCases() {
		t.Run(c.name, func(t *testing.T) {
			ref, metric := c.run(t, 1)
			c.check(t, ref, metric)
			// The chain's own probe counts add up to the Counter's sims,
			// less the one simulation that checks the start point fails.
			if int64(ref.probeSum) != ref.sims-1 {
				t.Fatalf("telemetry counted %v probes, Counter %d sims", ref.probeSum, ref.sims)
			}
			for _, workers := range workerCounts()[1:] {
				run, metric := c.run(t, workers)
				c.check(t, run, metric)
				if !reflect.DeepEqual(run.samples, ref.samples) {
					t.Fatalf("workers=%d: samples diverged", workers)
				}
				if !reflect.DeepEqual(run.polls, ref.polls) {
					t.Fatalf("workers=%d: per-update probe counts diverged", workers)
				}
				if run.sims != ref.sims {
					t.Fatalf("workers=%d: %d sims, want %d", workers, run.sims, ref.sims)
				}
				if !reflect.DeepEqual(run.probeBuckets, ref.probeBuckets) || run.probeSum != ref.probeSum {
					t.Fatalf("workers=%d: chain probe telemetry diverged", workers)
				}
			}
		})
	}
}

// The same stop through the public flow: a Stage1Budget run ends after
// the same update, with the same samples and estimate, at every worker
// count.
func TestTwoStageBudgetWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *TwoStageResult {
		counter := mc.NewCounter(&surrogate.Arc{R: 3, HalfAngle: 2.5})
		rng := rand.New(rand.NewSource(43))
		res, err := TwoStage(counter, TwoStageOptions{
			Coord: Spherical, K: 5000, N: 2000, Stage1Budget: 1500, Workers: workers,
			StartPoint: []float64{3.3 * math.Cos(2.2), 3.3 * math.Sin(2.2)},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if len(ref.Samples) >= 5000 {
		t.Fatalf("budget did not stop the chain: %d samples", len(ref.Samples))
	}
	for _, workers := range workerCounts()[1:] {
		res := run(workers)
		if !reflect.DeepEqual(res.Samples, ref.Samples) {
			t.Fatalf("workers=%d: stopped after %d samples, want %d (or samples diverged)",
				workers, len(res.Samples), len(ref.Samples))
		}
		if res.Stage1Sims != ref.Stage1Sims || res.Pf != ref.Pf || res.StdErr != ref.StdErr {
			t.Fatalf("workers=%d: (sims=%d Pf=%v) vs (sims=%d Pf=%v)",
				workers, res.Stage1Sims, res.Pf, ref.Stage1Sims, ref.Pf)
		}
	}
}

// Telemetry accounting under the two-goroutine search: the chain's
// probe tallies (the "probe" aggregate of the gibbs.chain span and the
// probes_per_update histogram, both read by the benchmark's
// gibbs.probes_per_sample row) must equal the stage-1 simulations minus
// the starting-point search's, less the one simulation that checks the
// start fails.
func TestChainProbeAccountingConcurrent(t *testing.T) {
	for _, coord := range []Coord{Cartesian, Spherical} {
		t.Run(coord.String(), func(t *testing.T) {
			reg := telemetry.New()
			trace := telemetry.NewTrace()
			reg.SetTrace(trace)
			counter := mc.NewCounter(&surrogate.Linear{W: []float64{1, 1, 1}, B: 7})
			rng := rand.New(rand.NewSource(44))
			res, err := TwoStage(counter, TwoStageOptions{
				Coord: coord, K: 300, N: 500, Workers: 2, Telemetry: reg,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			var startSims, probeAgg, updateAgg int64 = -1, -1, -1
			for _, sp := range trace.Snapshot() {
				switch sp.Name {
				case "start_point":
					startSims = sp.Attrs["sims"].(int64)
				case wire.EvGibbsChain:
					for _, a := range sp.Aggs {
						switch a.Name {
						case "probe":
							probeAgg = a.Count
						case "update":
							updateAgg = a.Count
						}
					}
				}
			}
			if startSims <= 0 || probeAgg <= 0 {
				t.Fatalf("trace lacks the start_point sims (%d) or the chain's probe aggregate (%d)", startSims, probeAgg)
			}
			want := res.Stage1Sims - startSims - 1
			if probeAgg != want {
				t.Fatalf("probe aggregate %d, want stage-1 sims %d − start-point sims %d − 1 = %d",
					probeAgg, res.Stage1Sims, startSims, want)
			}
			h := reg.Scope(wire.ScopeGibbs).Histogram("probes_per_update", probeBuckets)
			if int64(h.Sum()) != want || h.Count() != int64(len(res.Samples)) || updateAgg != int64(len(res.Samples)) {
				t.Fatalf("probes_per_update sum %v over %d updates (span %d), want %d over %d",
					h.Sum(), h.Count(), updateAgg, want, len(res.Samples))
			}
		})
	}
}
