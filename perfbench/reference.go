package main

import (
	"fmt"
	"math"
)

// reference is a frozen failure probability for one workload, with the
// run that produced it. HalfWidth is the reference's own 99% half-width
// (0 for a closed form).
type reference struct {
	Pf        float64
	HalfWidth float64
	Source    string
}

// references holds one frozen Pf per estimation target. Every estimate
// the benchmark makes is checked against its workload's entry, so a
// silent shift in a metric's Pf shows up as a failed operation rather
// than passing unnoticed.
var references = map[string]reference{
	// The same frozen value cmd/experiments/bench.go gates on: G-S at
	// K=3000, N=200000, seed 9, 99% relative error 3.7%.
	"readcurrent": {Pf: 2.737839e-6, HalfWidth: 0.037 * 2.737839e-6,
		Source: "g-s K=3000 N=200000 seed=9 (cmd/experiments/bench.go)"},
	// Closed form of the calibrated two-lobe region, 2·Φ(−4.8) − Φ(−4.8)²
	// (integration_test.go).
	"dualread": {Pf: 1.59e-6, HalfWidth: 0,
		Source: "closed form 2·Φ(−4.8) − Φ(−4.8)² (integration_test.go)"},
	// Computed once for this benchmark at well over ten times the
	// heavy-sims budget of each workload.
	"rnm": {Pf: 1.744641e-06, HalfWidth: 2.4364e-08,
		Source: "g-s K=6000 N=40000 seed=9, 133725 sims, relerr99 1.40%"},
	"wnm": {Pf: 8.673353e-07, HalfWidth: 1.3906e-08,
		Source: "g-s K=3000 N=30000 seed=9, 75995 sims, relerr99 1.60%"},
	"access": {Pf: 2.531723e-06, HalfWidth: 5.7541e-08,
		Source: "g-s K=3000 N=20000 seed=9, 63727 sims, relerr99 2.27%"},
}

// checkReference reports an error when the workload's reference Pf lies
// outside the estimate's 99% interval widened by the reference's own
// half-width.
func checkReference(workload string, pf, relErr99 float64) error {
	ref, ok := references[workload]
	if !ok {
		return fmt.Errorf("no reference Pf for workload %q", workload)
	}
	if math.IsNaN(pf) || math.IsNaN(relErr99) || math.IsInf(relErr99, 0) {
		return fmt.Errorf("%s: estimate Pf=%g relerr99=%g has no finite interval", workload, pf, relErr99)
	}
	allowed := relErr99*pf + ref.HalfWidth
	if d := math.Abs(pf - ref.Pf); d > allowed {
		return fmt.Errorf("%s: reference Pf %.4e outside estimate %.4e ± %.4e", workload, ref.Pf, pf, allowed)
	}
	return nil
}
