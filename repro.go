// Package repro is the public API of the SRAM failure-rate prediction
// library, a from-scratch reproduction of "Efficient SRAM Failure Rate
// Prediction via Gibbs Sampling" (Dong & Li, DAC 2011; Sun, Feng, Dong &
// Li, IEEE TCAD 2012).
//
// The library estimates the extremely small failure probabilities
// (1e-8..1e-6) of SRAM cells under process variation with seven
// estimators:
//
//   - MC: brute-force Monte Carlo (the golden reference)
//   - MIS: mixture importance sampling (Kanj et al., DAC 2006)
//   - MNIS: minimum-norm importance sampling (Qazi et al., DATE 2010)
//   - G-C: the paper's Gibbs sampling in Cartesian coordinates
//   - G-S: the paper's Gibbs sampling in spherical coordinates
//   - Blockade: statistical blockade (Singhee & Rutenbar, DATE 2007)
//   - Subset: subset simulation (the sequential-sampling family)
//
// A performance metric is any Metric: a function over the normalized
// variation space (independent standard Normal coordinates) whose
// negative values mean failure. Built-in metrics cover a transistor-level
// simulated 6-T SRAM cell (read noise margin, write margin, read
// current); custom metrics plug in the same way (see examples/customcell).
//
// Basic use:
//
//	res, err := repro.Estimate(repro.ReadCurrentWorkload(), repro.Options{
//		Method: repro.GS, K: 1000, N: 10000, Seed: 1,
//	})
//	fmt.Println(res.Pf, res.RelErr99, res.TotalSims)
//
// Long-running estimations should use EstimateContext, the primary entry
// point: it accepts a context.Context for cancellation and deadlines,
// checked at evaluation-chunk granularity, and reports the partial
// simulation cost of a cancelled run. Estimate is a thin
// context.Background() wrapper around it.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Telemetry is the run-telemetry registry: counters, gauges and latency
// histograms from every layer (SPICE solver, evaluation pool, Gibbs
// chain), a structured JSONL event stream, and Prometheus text export.
// Attach one via Options.Telemetry; nil (the default) disables all
// instrumentation and estimators pay nothing. Telemetry only observes —
// estimates are bit-identical with it on or off.
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty registry to pass in Options.Telemetry.
// Inspect it afterwards with Snapshot, WriteTable or WritePrometheus.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Metric is the performance-margin abstraction shared by all estimators:
// Value(x) < 0 means the sample at normalized variation point x fails.
// Every Value call stands for one transistor-level simulation.
type Metric = mc.Metric

// MetricFunc adapts a plain function to Metric.
type MetricFunc = mc.MetricFunc

// TracePoint is a convergence snapshot (estimate and 99% relative error
// after n second-stage simulations).
type TracePoint = mc.TracePoint

// Method selects the estimation algorithm.
type Method string

// Available estimation methods.
const (
	// MC is brute-force Monte Carlo sampling of f(x).
	MC Method = "mc"
	// MIS is mixture importance sampling [8].
	MIS Method = "mis"
	// MNIS is minimum-norm importance sampling [14].
	MNIS Method = "mnis"
	// GC is the proposed Gibbs sampling in Cartesian coordinates.
	GC Method = "g-c"
	// GS is the proposed Gibbs sampling in spherical coordinates.
	GS Method = "g-s"
	// Blockade is statistical blockade (Singhee & Rutenbar, the paper's
	// reference [9]): a classifier filters a large Monte Carlo stream so
	// only near-tail candidates are simulated.
	Blockade Method = "blockade"
	// Subset is subset simulation, the sequential-sampling family of the
	// paper's reference [13]: a particle ladder of conditional
	// probabilities over descending margin levels.
	Subset Method = "subset"
)

// ErrUnknownMethod is reported (wrapped) when a Method is not one of the
// seven estimators; test with errors.Is.
var ErrUnknownMethod = errors.New("repro: unknown method")

// ErrInvalidOptions is reported (wrapped) by Options.Validate and the
// estimation entry points when an Options field is out of range; the
// wrapped error joins one field-level error per problem. Test with
// errors.Is.
var ErrInvalidOptions = errors.New("repro: invalid options")

// Methods lists every method in the paper's comparison order.
func Methods() []Method { return []Method{MIS, MNIS, GC, GS} }

// AllMethods lists every available estimator, including the golden MC
// reference and the extension baselines — the set the introspection
// endpoints of the estimation service expose.
func AllMethods() []Method { return []Method{MC, MIS, MNIS, GC, GS, Blockade, Subset} }

// String implements fmt.Stringer with the method's CLI/API spelling.
func (m Method) String() string { return string(m) }

// Valid reports whether m names one of the seven estimators.
func (m Method) Valid() bool {
	switch m {
	case MC, MIS, MNIS, GC, GS, Blockade, Subset:
		return true
	}
	return false
}

// Describe returns a one-line human description of the method (empty for
// invalid methods).
func (m Method) Describe() string {
	switch m {
	case MC:
		return "brute-force Monte Carlo (golden reference)"
	case MIS:
		return "mixture importance sampling (Kanj et al., DAC 2006)"
	case MNIS:
		return "minimum-norm importance sampling (Qazi et al., DATE 2010)"
	case GC:
		return "two-stage Gibbs sampling, Cartesian coordinates (the paper)"
	case GS:
		return "two-stage Gibbs sampling, spherical coordinates (the paper)"
	case Blockade:
		return "statistical blockade (Singhee & Rutenbar, DATE 2007)"
	case Subset:
		return "subset simulation (sequential-sampling family)"
	}
	return ""
}

// ParseMethod converts a string (as used on CLI flags) to a Method. The
// error wraps ErrUnknownMethod.
func ParseMethod(s string) (Method, error) {
	if m := Method(s); m.Valid() {
		return m, nil
	}
	return "", fmt.Errorf("%w %q (want mc, mis, mnis, g-c, g-s, blockade or subset)", ErrUnknownMethod, s)
}

// Options configures Estimate.
type Options struct {
	// Method selects the estimator (default GS).
	Method Method
	// K is the first-stage budget: Gibbs samples for G-C/G-S,
	// exploratory simulations for MIS, model-training simulations for
	// MNIS. Defaults: 1000 (G-C/G-S), 5000 (MIS), 1000 (MNIS).
	K int
	// N is the second-stage sample count (or the full budget for MC).
	// Default 10000.
	N int
	// Target, when positive, replaces the fixed N with a convergence
	// target: the second stage stops once the 99% relative error drops
	// below Target (N then acts as the cap).
	Target float64
	// Seed makes the run deterministic.
	Seed int64
	// TraceEvery records a convergence snapshot every so many
	// second-stage samples (0 disables).
	TraceEvery int
	// StartPoint optionally pins the Gibbs starting point, skipping the
	// Algorithm 4 model-based search (G-C/G-S only).
	StartPoint []float64
	// Quadratic selects a quadratic (instead of linear) response
	// surface for the starting-point search (G-C/G-S/MNIS).
	Quadratic bool
	// Mixture, when ≥ 2, fits a Gaussian mixture with that many
	// components as the second-stage distortion instead of a single
	// Normal (G-C/G-S only; the paper's §IV-C extension). Multi-lobe
	// failure regions need it; raise K when using it.
	Mixture int
	// Workers sizes the batch-evaluation pool shared by every method
	// (0 = GOMAXPROCS). All sampling stages fan out. The Gibbs chain's
	// coordinate updates run one after another, but with two or more
	// workers each update searches the two sides of its failure interval
	// on two goroutines; the model-based starting-point search runs on
	// one. Estimates are bit-identical for every worker count — Workers
	// trades wall-clock time only.
	Workers int
	// Telemetry, when non-nil, receives metrics and structured events
	// from every stage of the run (see Telemetry). When the metric
	// exposes SetTelemetry (the built-in SRAM workloads do), the registry
	// is threaded down into the transistor-level solver as well.
	Telemetry *Telemetry
}

// Result is the outcome of an estimation run.
type Result struct {
	// Pf is the estimated failure probability.
	Pf float64
	// StdErr is its standard error, and RelErr99 the paper's accuracy
	// metric: the 99% confidence half-width over the estimate.
	StdErr, RelErr99 float64
	// N is the number of second-stage samples consumed; Failures counts
	// how many fell in the failure region.
	N, Failures int
	// WeightESS is the Kish effective sample size of the second-stage
	// importance weights — a small value despite a tight CI flags a
	// distortion that misses part of the failure region.
	WeightESS float64
	// MaxWeight is the largest importance weight observed, and
	// TopWeights the largest few in descending order (importance-sampling
	// methods only) — the inputs to the report's weight-tail diagnostics.
	MaxWeight  float64
	TopWeights []float64
	// Stage1Sims, Stage2Sims and TotalSims report the cost in
	// transistor-level simulations, split the way the paper's tables
	// split them.
	Stage1Sims, Stage2Sims, TotalSims int64
	// Stage1Seconds and Stage2Seconds split the wall time the same way
	// (zero for methods without a stage split; no statistical meaning).
	Stage1Seconds, Stage2Seconds float64
	// GibbsSamples holds the first-stage samples for G-C/G-S (nil for
	// other methods) — the data behind the paper's scatter figures.
	GibbsSamples [][]float64
	// DistortionMean is the fitted mean of g^NOR (importance-sampling
	// methods only).
	DistortionMean []float64
	// Trace holds convergence snapshots if TraceEvery was set.
	Trace []TracePoint
	// Report is the statistical run-report: chain convergence,
	// weight health, cost split, and the paper-style figure of merit.
	// It is attached to every successful estimate (nil on aborts).
	Report *RunReport
}

// Validate checks every Options field and reports all problems at once:
// the returned error wraps ErrInvalidOptions and joins one field-level
// error per offense (errors.Join), so a caller — or an API client
// reading the message — sees the full list instead of the first hit.
// Zero values are always valid (they select defaults). A nil return
// means EstimateContext will accept the options.
func (o Options) Validate() error {
	var errs []error
	if o.Method != "" && !o.Method.Valid() {
		errs = append(errs, fmt.Errorf("Method: %w %q (want mc, mis, mnis, g-c, g-s, blockade or subset)", ErrUnknownMethod, string(o.Method)))
	}
	if o.K < 0 {
		errs = append(errs, fmt.Errorf("K: must be ≥ 0 (0 selects the method default), got %d", o.K))
	}
	if o.N < 0 {
		errs = append(errs, fmt.Errorf("N: must be ≥ 0 (0 selects the default), got %d", o.N))
	}
	if o.Target < 0 || math.IsNaN(o.Target) || math.IsInf(o.Target, 0) {
		errs = append(errs, fmt.Errorf("Target: must be a finite value ≥ 0 (0 disables the convergence target), got %v", o.Target))
	}
	if o.TraceEvery < 0 {
		errs = append(errs, fmt.Errorf("TraceEvery: must be ≥ 0 (0 disables tracing), got %d", o.TraceEvery))
	}
	if o.Workers < 0 {
		errs = append(errs, fmt.Errorf("Workers: must be ≥ 0 (0 selects GOMAXPROCS), got %d", o.Workers))
	}
	if o.Mixture < 0 {
		errs = append(errs, fmt.Errorf("Mixture: must be ≥ 0 (0 or 1 keeps the single-Normal fit), got %d", o.Mixture))
	}
	for i, v := range o.StartPoint {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("StartPoint[%d]: must be finite, got %v", i, v))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidOptions, errors.Join(errs...))
}

func (o Options) withDefaults() Options {
	if o.Method == "" {
		o.Method = GS
	}
	if o.K <= 0 {
		switch o.Method {
		case MIS:
			o.K = 5000
		default:
			o.K = 1000
		}
	}
	if o.N <= 0 {
		o.N = 10000
	}
	return o
}

// Canonical returns o with every zero-valued tuning field resolved to
// the default the estimator would actually run with (Method, K, N).
// Two option sets with equal Canonical forms describe the same
// estimation — the property content-addressed result caches key on.
func (o Options) Canonical() Options { return o.withDefaults() }

// Estimate runs the selected estimator on the metric and reports the
// failure probability with full cost accounting. It is a thin
// context.Background() wrapper around EstimateContext, kept as the
// convenience entry point for callers that never cancel.
func Estimate(metric Metric, opts Options) (*Result, error) {
	return EstimateContext(context.Background(), metric, opts)
}

// EstimateContext is the primary estimation entry point: it runs the
// selected estimator on the metric under ctx and reports the failure
// probability with full cost accounting.
//
// Cancellation is checked at evaluation-chunk granularity — between
// dispatched simulation chunks, between Gibbs-chain coordinate updates
// and between model-training simulations, never inside a hot sample
// loop — so a cancel or an expired deadline returns within one chunk
// with an error satisfying errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded). On such an abort the returned *Result is
// non-nil with TotalSims set to the simulations actually consumed, so
// partial cost is never lost; every other field is zero. An uncancelled
// EstimateContext run is bit-identical to Estimate for every worker
// count.
//
// Invalid options are rejected up front with an error wrapping
// ErrInvalidOptions that lists every out-of-range field at once.
func EstimateContext(ctx context.Context, metric Metric, opts Options) (*Result, error) {
	if metric == nil {
		return nil, fmt.Errorf("%w: nil metric", ErrInvalidOptions)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if o.Telemetry != nil {
		if tm, ok := metric.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
			tm.SetTelemetry(o.Telemetry)
		}
		o.Telemetry.Emit(wire.EvRunStart, map[string]any{
			"method": string(o.Method), "k": o.K, "n": o.N, "target": o.Target,
			"seed": o.Seed, "workers": o.Workers, "dim": metric.Dim(),
		})
	}
	// Root span of the estimate pipeline: every stage below (Alg 4
	// search, Gibbs chain, fit, stage-2 IS) nests under it.
	ctx, span := telemetry.StartSpan(ctx, o.Telemetry, "estimate")
	defer span.End()
	span.SetAttr("method", string(o.Method))
	span.SetAttr("seed", o.Seed)
	span.SetAttr("dim", metric.Dim())
	counter := mc.NewCounter(metric)
	t0 := time.Now()
	res, err := estimate(ctx, counter, o)
	wall := time.Since(t0).Seconds()
	span.SetAttr("sims", counter.Count())
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Partial cost accounting: the estimate is gone but the
		// simulations were spent; report them.
		res = &Result{TotalSims: counter.Count()}
	}
	if err == nil && res != nil {
		res.Report = buildReport(res, o, wall)
	}
	if o.Telemetry != nil {
		if err != nil {
			o.Telemetry.Emit(wire.EvRunDone, map[string]any{
				"method": string(o.Method), "error": err.Error(),
			})
		} else {
			o.Telemetry.Emit(wire.EvRunDone, map[string]any{
				"method": string(o.Method), "pf": res.Pf, "relerr99": res.RelErr99,
				"n": res.N, "stage1_sims": res.Stage1Sims, "stage2_sims": res.Stage2Sims,
				"total_sims": res.TotalSims, "uptime_seconds": o.Telemetry.Uptime().Seconds(),
			})
		}
	}
	return res, err
}

// estimate dispatches to the selected method with o fully defaulted.
func estimate(ctx context.Context, counter *mc.Counter, o Options) (*Result, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	trace := mc.TraceEvery(o.TraceEvery)

	switch o.Method {
	case MC:
		if o.Workers != 1 && o.TraceEvery == 0 {
			res, err := mc.ParallelMCContext(ctx, counter, o.N, o.Seed, o.Workers, o.Telemetry)
			if err != nil {
				return nil, err
			}
			return fromMC(res, counter), nil
		}
		res, err := mc.PlainMCContext(ctx, counter, o.N, rng, trace)
		if err != nil {
			return nil, err
		}
		return fromMC(res, counter), nil

	case MIS:
		mo := baselines.MISOptions{Stage1: o.K, N: o.N, TraceEvery: trace, Workers: o.Workers, Telemetry: o.Telemetry}
		var (
			res *baselines.Result
			err error
		)
		if o.Target > 0 {
			res, err = baselines.MISUntilContext(ctx, counter, mo, o.Target, minStage2, o.N, rng)
		} else {
			res, err = baselines.MISContext(ctx, counter, mo, rng)
		}
		if err != nil {
			return nil, err
		}
		return fromBaseline(res), nil

	case MNIS:
		mo := baselines.MNISOptions{
			Start: &model.StartOptions{TrainN: o.K, UseQuadratic: o.Quadratic},
			N:     o.N, TraceEvery: trace, Workers: o.Workers, Telemetry: o.Telemetry,
		}
		var (
			res *baselines.Result
			err error
		)
		if o.Target > 0 {
			res, err = baselines.MNISUntilContext(ctx, counter, mo, o.Target, minStage2, o.N, rng)
		} else {
			res, err = baselines.MNISContext(ctx, counter, mo, rng)
		}
		if err != nil {
			return nil, err
		}
		return fromBaseline(res), nil

	case Blockade:
		res, err := baselines.BlockadeContext(ctx, counter, baselines.BlockadeOptions{
			Train: o.K, N: o.N, Workers: o.Workers, Telemetry: o.Telemetry,
		}, rng)
		if err != nil {
			return nil, err
		}
		return &Result{
			Pf: res.Pf, StdErr: res.StdErr, RelErr99: res.RelErr99,
			N: res.N, Failures: res.Failures,
			Stage1Sims: res.TrainSims, Stage2Sims: res.TailSims,
			TotalSims: res.TrainSims + res.TailSims,
		}, nil

	case Subset:
		res, err := baselines.SubsetContext(ctx, counter, baselines.SubsetOptions{
			Particles: o.K, Workers: o.Workers, Telemetry: o.Telemetry,
		}, rng)
		if err != nil {
			return nil, err
		}
		return &Result{
			Pf: res.Pf, StdErr: res.StdErr, RelErr99: res.RelErr99,
			N: res.N, Stage2Sims: res.Sims, TotalSims: res.Sims,
		}, nil

	case GC, GS:
		coord := gibbs.Cartesian
		if o.Method == GS {
			coord = gibbs.Spherical
		}
		to := gibbs.TwoStageOptions{
			Coord: coord, K: o.K, N: o.N,
			Start:      &model.StartOptions{UseQuadratic: o.Quadratic},
			StartPoint: o.StartPoint,
			Mixture:    o.Mixture,
			TraceEvery: trace,
			Workers:    o.Workers,
			Telemetry:  o.Telemetry,
		}
		var (
			res *gibbs.TwoStageResult
			err error
		)
		if o.Target > 0 {
			res, err = gibbs.TwoStageUntilContext(ctx, counter, to, o.Target, minStage2, o.N, rng)
		} else {
			res, err = gibbs.TwoStageContext(ctx, counter, to, rng)
		}
		if err != nil {
			return nil, err
		}
		return fromGibbs(res), nil

	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownMethod, string(o.Method))
	}
}

// minStage2 guards the until-target runs against declaring convergence
// from the first handful of weights.
const minStage2 = 500

func fromMC(res mc.Result, counter *mc.Counter) *Result {
	return &Result{
		Pf: res.Pf, StdErr: res.StdErr, RelErr99: res.RelErr99,
		N: res.N, Failures: res.Failures, WeightESS: res.WeightESS,
		MaxWeight: res.MaxWeight, TopWeights: res.TopWeights,
		Stage2Sims: int64(res.N), TotalSims: counter.Count(),
		Trace: res.Trace,
	}
}

func fromBaseline(res *baselines.Result) *Result {
	return &Result{
		Pf: res.Pf, StdErr: res.StdErr, RelErr99: res.RelErr99,
		N: res.N, Failures: res.Failures, WeightESS: res.WeightESS,
		MaxWeight: res.MaxWeight, TopWeights: res.TopWeights,
		Stage1Sims: res.Stage1Sims, Stage2Sims: res.Stage2Sims,
		TotalSims:      res.Stage1Sims + res.Stage2Sims,
		Stage1Seconds:  res.Stage1Seconds,
		Stage2Seconds:  res.Stage2Seconds,
		DistortionMean: res.Mean,
		Trace:          res.Trace,
	}
}

func fromGibbs(res *gibbs.TwoStageResult) *Result {
	return &Result{
		Pf: res.Pf, StdErr: res.StdErr, RelErr99: res.RelErr99,
		N: res.N, Failures: res.Failures, WeightESS: res.WeightESS,
		MaxWeight: res.MaxWeight, TopWeights: res.TopWeights,
		Stage1Sims: res.Stage1Sims, Stage2Sims: res.Stage2Sims,
		TotalSims:      res.Stage1Sims + res.Stage2Sims,
		Stage1Seconds:  res.Stage1Seconds,
		Stage2Seconds:  res.Stage2Seconds,
		GibbsSamples:   res.Samples,
		DistortionMean: res.GNor.Mean,
		Trace:          res.Trace,
	}
}
