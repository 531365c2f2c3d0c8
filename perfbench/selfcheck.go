package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// slowdown is the busy time the sensitivity self-check adds to every
// evaluation, as a share of the metric's own mean evaluation time.
const slowdown = 0.15

// selfCheckPasses is how many passes of heavy-sims each arm runs — the
// same count a --seconds 50 run makes.
const selfCheckPasses = 5

// runSelfCheck proves from outside the program that the benchmark's
// heavy-sims time_to_solution_s bound catches a ~15% per-evaluation
// slowdown and tolerates no change at all. Three arms run the same
// requests, interleaved pass by pass: A and A' unmodified, B with every
// metric wrapped to spin an extra 15% of its mean evaluation time
// (measured first, on one wrapped pass). B must be slower than A by more
// than the bound; A' must be within the bound of A.
func runSelfCheck(ctx context.Context, seed int64, w io.Writer) error {
	bound, err := benchmarkBound("time_to_solution_s")
	if err != nil {
		return err
	}
	seeds := passSeeds(seed, 0, heavySims)

	// Mean evaluation time per metric, from one wrapped pass.
	calib, err := runPass(ctx, heavySims, seeds, false, map[string]time.Duration{})
	if err != nil {
		return err
	}
	extra := map[string]time.Duration{}
	for _, e := range calib.ests {
		if e.err != nil {
			return fmt.Errorf("calibration pass: %s: %w", e.spec, e.err)
		}
		mean := e.metric.busy(0, e.metric.since()) / time.Duration(e.metric.evals.Load())
		extra[e.spec.Workload] = time.Duration(slowdown * float64(mean))
	}

	arms := map[string][]float64{}
	for i := 0; i < selfCheckPasses; i++ {
		for _, arm := range []string{"A", "B", "A'"} {
			var slow map[string]time.Duration
			if arm == "B" {
				slow = extra
			}
			p, err := runPass(ctx, heavySims, seeds, false, slow)
			if err != nil {
				return err
			}
			for _, e := range p.ests {
				if e.err != nil {
					return fmt.Errorf("arm %s: %s: %w", arm, e.spec, e.err)
				}
			}
			arms[arm] = append(arms[arm], p.wall.Seconds())
		}
	}
	a, b, a2 := median(arms["A"]), median(arms["B"]), median(arms["A'"])
	verdict := map[string]any{
		"bound":           bound,
		"extra_per_eval":  extra,
		"pass_seconds":    arms,
		"slowdown_ratio":  b/a - 1,
		"aa_ratio":        a2/a - 1,
		"slowdown_caught": b/a-1 > bound,
		"aa_within_bound": a2/a-1 <= bound && a/a2-1 <= bound,
	}
	if err := json.NewEncoder(w).Encode(verdict); err != nil {
		return err
	}
	if b/a-1 <= bound {
		return fmt.Errorf("a %.0f%% per-evaluation slowdown moved time_to_solution_s by only %.1f%%, inside the %.0f%% bound", slowdown*100, (b/a-1)*100, bound*100)
	}
	if a2/a-1 > bound || a/a2-1 > bound {
		return fmt.Errorf("an unmodified A/A comparison moved time_to_solution_s by %.1f%%, outside the %.0f%% bound", (a2/a-1)*100, bound*100)
	}
	return nil
}

// benchmarkBound reads the named end-to-end metric's bound from the
// BENCHMARK.json at the root of the checkout.
func benchmarkBound(metric string) (float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == metric {
			return m.Bound, nil
		}
	}
	return 0, fmt.Errorf("BENCHMARK.json has no end-to-end metric %q", metric)
}
