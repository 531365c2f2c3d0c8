// Package gibbs implements the paper's primary contribution: Gibbs
// sampling of the optimal importance-sampling distribution
// g^OPT(x) = I(x)·f(x)/P_f without explicit knowledge of the indicator
// I(x), in both Cartesian (Algorithm 1) and spherical (Algorithm 2)
// coordinate systems, with 1-D inverse-transform sampling of the
// conditionals (Algorithm 3), model-based starting-point selection
// (Algorithm 4), and the two-stage Monte Carlo flow (Algorithm 5).
package gibbs

import (
	"math"
	"math/rand"

	"repro/internal/stat"
	"repro/internal/telemetry"
)

// Options tunes the Gibbs chain. The zero value (or nil) selects the
// defaults used in the experiments.
type Options struct {
	// Zeta bounds every Cartesian/orientation coordinate to [−Zeta, Zeta]
	// (paper §IV-A suggests ζ = 8–10; default 8). The probability mass
	// outside is negligible (< 1e-15 per coordinate).
	Zeta float64
	// RMax bounds the radius coordinate of the spherical chain; when
	// zero it defaults to the Chi(M) quantile at 1−1e−12 plus 2.
	RMax float64
	// ExpandStep is the initial bracketing step of the 1-D failure
	// interval search (default 0.5σ).
	ExpandStep float64
	// Bisections refines each interval boundary (default 6; each
	// bisection is one transistor-level simulation).
	Bisections int
	// ScanPoints is the coarse-scan budget used to recover when the
	// current chain point has drifted out of the failure region
	// (default 12).
	ScanPoints int
	// Epsilon is the ‖α‖ used when mapping the starting point into the
	// redundant spherical coordinates (paper eq. 32; default 1e-2).
	Epsilon float64
	// Stop, when non-nil, is polled before each coordinate update; the
	// chain ends early when it returns true. The two-stage flow uses it
	// to cap the first stage at a fixed simulation budget, which is how
	// the paper sizes its comparisons (e.g., 5000 stage-1 simulations in
	// Table I).
	Stop func() bool
	// Telemetry, when non-nil, receives per-coordinate interval-search
	// counters, mixing gauges and a "gibbs.chain" event per chain. It
	// only observes — the chain's draws are identical with it on or off.
	Telemetry *telemetry.Registry

	// workers decides whether each interval search probes its two sides
	// on two goroutines (resolved by concurrent). firstStage sets it from
	// TwoStageOptions.Workers; the zero value selects GOMAXPROCS.
	workers int
}

func (o *Options) defaults() Options {
	d := Options{Zeta: 8, ExpandStep: 0.5, Bisections: 6, ScanPoints: 12, Epsilon: 1e-2}
	if o == nil {
		return d
	}
	out := *o
	if out.Zeta <= 0 {
		out.Zeta = d.Zeta
	}
	if out.ExpandStep <= 0 {
		out.ExpandStep = d.ExpandStep
	}
	if out.Bisections <= 0 {
		out.Bisections = d.Bisections
	}
	if out.ScanPoints <= 0 {
		out.ScanPoints = d.ScanPoints
	}
	if out.Epsilon <= 0 {
		out.Epsilon = d.Epsilon
	}
	return out
}

func (o *Options) rmax(dim int) float64 {
	if o.RMax > 0 {
		return o.RMax
	}
	return stat.Chi{K: dim}.Quantile(1-1e-12) + 2
}

// finiteVec reports whether every coordinate is a normal float.
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// uniform01 draws from the open interval (0, 1); the inverse-transform
// endpoints map to the interval boundaries, which we keep sampleable but
// never exactly hit.
func uniform01(rng *rand.Rand) float64 {
	for {
		u := rng.Float64()
		if u > 0 && u < 1 {
			return u
		}
	}
}
