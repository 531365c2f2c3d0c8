package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/stat"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Coord selects the Gibbs chain's coordinate system.
type Coord int

// Coordinate systems (the paper's G-C and G-S variants).
const (
	Cartesian Coord = iota
	Spherical
)

func (c Coord) String() string {
	switch c {
	case Cartesian:
		return "G-C"
	case Spherical:
		return "G-S"
	default:
		return fmt.Sprintf("Coord(%d)", int(c))
	}
}

// TwoStageOptions configures the paper's Algorithm 5.
type TwoStageOptions struct {
	// Coord selects Algorithm 1 (Cartesian) or Algorithm 2 (spherical)
	// for the first stage.
	Coord Coord
	// K is the number of first-stage Gibbs samples (paper: 1e2–1e3).
	K int
	// N is the number of second-stage importance-sampling simulations
	// (paper: 1e3–1e4). Ignored by TwoStageUntilContext.
	N int
	// Stage1Budget, when positive, caps the whole first stage (starting
	// point search + Gibbs chain) at this many simulations, the way the
	// paper sizes its comparisons; K then acts as an upper bound on the
	// sample count.
	Stage1Budget int64
	// Chain tunes the Gibbs chain; nil selects defaults.
	Chain *Options
	// Start tunes the Algorithm 4 model-based starting-point search;
	// nil selects defaults.
	Start *model.StartOptions
	// StartPoint, when non-nil, skips Algorithm 4 and starts the chain
	// here (used by the ablation benchmarks).
	StartPoint []float64
	// Mixture, when ≥ 2, fits a Gaussian mixture with that many
	// components instead of the single Normal g^NOR — the paper's §IV-C
	// extension, useful on multi-lobe failure regions. 0 or 1 keeps the
	// plain Algorithm 5 fit.
	Mixture int
	// Workers sizes the second-stage evaluation pool (0 = GOMAXPROCS).
	// The first stage is a Markov chain, so its coordinate updates run
	// one after another; with two or more workers each update's interval
	// search probes its upward and downward sides on two goroutines. The
	// estimate is identical for every worker count.
	Workers int
	// TraceEvery records a convergence snapshot every so many
	// second-stage samples (0 disables).
	TraceEvery mc.TraceEvery
	// Telemetry, when non-nil, observes the whole flow: chain counters
	// and mixing gauges from stage 1, evaluator throughput and running
	// Pf/error-bar gauges from stage 2, plus stage1.*/stage2.* events.
	// It never touches the random draws — estimates are bit-identical
	// with telemetry on or off.
	Telemetry *telemetry.Registry
}

// TwoStageResult reports the estimate with the paper's cost accounting.
type TwoStageResult struct {
	mc.Result
	// Start is the Algorithm 4 starting point.
	Start []float64
	// Samples are the K first-stage Gibbs samples (Cartesian
	// coordinates).
	Samples [][]float64
	// GNor is the fitted Normal distortion g^NOR(x) (always computed).
	GNor *stat.MVNormal
	// GMix is the fitted Gaussian-mixture distortion when
	// Options.Mixture ≥ 2 (nil otherwise); when present it is the
	// distribution the second stage sampled.
	GMix *stat.GMM
	// Stage1Sims and Stage2Sims split the total simulation count: stage
	// 1 covers the starting-point search plus the Gibbs chain; stage 2
	// is the importance-sampling run.
	Stage1Sims, Stage2Sims int64
	// Stage1Seconds and Stage2Seconds split the wall time the same way
	// (for the run-report; they carry no statistical meaning).
	Stage1Seconds, Stage2Seconds float64
}

// firstStage runs Algorithm 4 (unless a start point is given), the chosen
// Gibbs chain, and the g^NOR fit, recording stage-1 cost in res.
func firstStage(ctx context.Context, counter *mc.Counter, opts *TwoStageOptions, rng *rand.Rand) (*TwoStageResult, error) {
	if opts.K <= 0 {
		return nil, errors.New("gibbs: K must be positive")
	}
	res := &TwoStageResult{}

	t0 := time.Now()
	ctx, span := telemetry.StartSpan(ctx, opts.Telemetry, "stage1")
	defer func() {
		res.Stage1Seconds = time.Since(t0).Seconds()
		span.End()
	}()
	span.SetAttr("coord", opts.Coord.String())
	span.SetAttr("k", opts.K)
	opts.Telemetry.Emit(wire.EvStage1Start, map[string]any{
		"coord": opts.Coord.String(), "k": opts.K, "budget": opts.Stage1Budget,
	})
	start := opts.StartPoint
	if start == nil {
		spCtx, spSpan := telemetry.StartSpan(ctx, opts.Telemetry, "start_point")
		var err error
		start, err = model.FindFailurePointContext(spCtx, counter, opts.Start, rng)
		spSpan.SetAttr("sims", counter.Count())
		spSpan.End()
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("gibbs: starting-point selection: %w", err)
		}
	}
	res.Start = start
	opts.Telemetry.Emit(wire.EvStage1StartPoint, map[string]any{
		"sims": counter.Count(), "norm": linalg.Norm2(start),
	})

	var co Options
	if opts.Chain != nil {
		co = *opts.Chain
	}
	co.workers = opts.Workers
	if opts.Stage1Budget > 0 {
		budget := opts.Stage1Budget
		co.Stop = func() bool { return counter.Count() >= budget }
	}
	if co.Telemetry == nil {
		co.Telemetry = opts.Telemetry
	}
	chainOpts := &co
	var (
		samples [][]float64
		err     error
	)
	switch opts.Coord {
	case Cartesian:
		samples, err = CartesianChainContext(ctx, counter, start, opts.K, chainOpts, rng)
	case Spherical:
		samples, err = SphericalChainContext(ctx, counter, start, opts.K, chainOpts, rng)
	default:
		return nil, fmt.Errorf("gibbs: unknown coordinate system %v", opts.Coord)
	}
	if err != nil {
		return nil, err
	}
	res.Samples = samples
	res.Stage1Sims = counter.Count()
	span.SetAttr("sims", res.Stage1Sims)
	opts.Telemetry.Emit(wire.EvStage1Done, map[string]any{
		"sims": res.Stage1Sims, "samples": len(samples),
	})

	_, fitSpan := telemetry.StartSpan(ctx, opts.Telemetry, "fit")
	fitSpan.SetAttr("mixture", opts.Mixture)
	defer fitSpan.End()
	res.GNor, err = FitDistortion(samples)
	if err != nil {
		return nil, err
	}
	if opts.Mixture >= 2 {
		res.GMix, err = FitDistortionGMM(samples, opts.Mixture, rng)
		if err != nil {
			return nil, fmt.Errorf("gibbs: fitting mixture distortion: %w", err)
		}
	}
	return res, nil
}

// distortion returns the distribution the second stage samples from.
func (r *TwoStageResult) distortion() mc.Distortion {
	if r.GMix != nil {
		return r.GMix
	}
	return r.GNor
}

// TwoStage runs the paper's Algorithm 5 end to end:
//
//  1. Algorithm 4: model-based starting-point selection (skipped when
//     StartPoint is given).
//  2. Algorithm 1 or 2 (+3): generate K Gibbs samples in the failure
//     region.
//  3. Fit the multivariate Normal g^NOR from the samples' mean and
//     covariance.
//  4. Draw N samples from g^NOR and estimate P_f by eq. (33).
//
// The metric must be wrapped in a Counter so the stage costs can be
// reported the way the paper reports them (Tables I and II).
func TwoStage(counter *mc.Counter, opts TwoStageOptions, rng *rand.Rand) (*TwoStageResult, error) {
	return TwoStageContext(context.Background(), counter, opts, rng)
}

// TwoStageContext is TwoStage with cancellation threaded through every
// stage: the Algorithm 4 starting-point search, the Gibbs chain (checked
// per coordinate update) and the second-stage sampling loop (checked per
// evaluation chunk). A cancel returns the context's error; an
// uncancelled run is bit-identical to TwoStage for every worker count.
func TwoStageContext(ctx context.Context, counter *mc.Counter, opts TwoStageOptions, rng *rand.Rand) (*TwoStageResult, error) {
	if opts.N <= 0 {
		return nil, errors.New("gibbs: N must be positive")
	}
	res, err := firstStage(ctx, counter, &opts, rng)
	if err != nil {
		return nil, err
	}
	ev := mc.NewEvaluator(counter, opts.Workers).WithTelemetry(opts.Telemetry)
	opts.Telemetry.Emit(wire.EvStage2Start, map[string]any{
		"n": opts.N, "workers": ev.Workers(), "mixture": opts.Mixture,
	})
	t0 := time.Now()
	res.Result, err = mc.ImportanceSampleContext(ctx, ev, res.distortion(), opts.N, rng, opts.TraceEvery)
	if err != nil {
		return nil, err
	}
	res.Stage2Seconds = time.Since(t0).Seconds()
	res.Stage2Sims = counter.Count() - res.Stage1Sims
	return res, nil
}

// TwoStageUntilContext runs the same flow as TwoStageContext but
// replaces the fixed N with a convergence target: the second stage stops
// as soon as the 99% relative error reaches target (or maxN
// simulations). This regenerates the paper's Table I ("number of
// simulations to achieve 5% error"). Cancellation is threaded through
// both stages the same way as in TwoStageContext.
func TwoStageUntilContext(ctx context.Context, counter *mc.Counter, opts TwoStageOptions, target float64, minN, maxN int, rng *rand.Rand) (*TwoStageResult, error) {
	res, err := firstStage(ctx, counter, &opts, rng)
	if err != nil {
		return nil, err
	}
	ev := mc.NewEvaluator(counter, opts.Workers).WithTelemetry(opts.Telemetry)
	opts.Telemetry.Emit(wire.EvStage2Start, map[string]any{
		"target": target, "min_n": minN, "max_n": maxN, "workers": ev.Workers(), "mixture": opts.Mixture,
	})
	t0 := time.Now()
	res.Result, err = mc.ImportanceSampleUntilContext(ctx, ev, res.distortion(), target, minN, maxN, rng)
	if err != nil {
		return nil, err
	}
	res.Stage2Seconds = time.Since(t0).Seconds()
	res.Stage2Sims = counter.Count() - res.Stage1Sims
	return res, nil
}

// FitDistortion performs Algorithm 5 step 4: estimate the mean and
// covariance of the Gibbs samples and build the Normal approximation
// g^NOR of the optimal distortion g^OPT. Near-singular covariances (short
// or poorly mixed chains) are regularized with diagonal jitter inside
// stat.NewMVNormal.
func FitDistortion(samples [][]float64) (*stat.MVNormal, error) {
	mu, cov, err := stat.Covariance(samples)
	if err != nil {
		return nil, fmt.Errorf("gibbs: fitting g^NOR: %w", err)
	}
	return stat.NewMVNormal(mu, cov)
}

// FitDistortionGMM fits a k-component Gaussian mixture to the Gibbs
// samples (the §IV-C extension of Algorithm 5 step 4). The paper warns
// that non-Normal distortions "often require more Gibbs samples to fit";
// callers should raise K accordingly.
func FitDistortionGMM(samples [][]float64, k int, rng *rand.Rand) (*stat.GMM, error) {
	return stat.FitGMM(samples, k, 60, rng)
}
