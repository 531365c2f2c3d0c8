package main

import (
	"bytes"
	"context"
	"testing"

	"repro"
)

// TestTracedRunMeasuresTheSameProgram checks that the traced run's
// instruments change nothing the program computes: for every request of
// both estimation workloads, a bare run on a fresh metric and a traced
// pass (metric set up in advance, wrapped in a timedMetric, telemetry
// attached) give byte-identical deterministic run-reports. It also checks
// that the wrapper forwarded ValueBatch and SetTelemetry.
func TestTracedRunMeasuresTheSameProgram(t *testing.T) {
	ctx := context.Background()
	for _, set := range [][]estSpec{lightSims, heavySims} {
		seeds := passSeeds(7, 0, set)
		traced, err := runPass(ctx, set, seeds, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range set {
			e := traced.ests[i]
			t.Run(spec.String(), func(t *testing.T) {
				m, err := repro.WorkloadByName(spec.Workload)
				if err != nil {
					t.Fatal(err)
				}
				bare, err := repro.EstimateContext(ctx, m, spec.options(seeds[i]))
				if err != nil {
					t.Fatal(err)
				}
				if e.err != nil {
					t.Fatal(e.err)
				}
				var want, got bytes.Buffer
				if err := bare.Report.Deterministic().WriteJSON(&want); err != nil {
					t.Fatal(err)
				}
				if err := e.res.Report.Deterministic().WriteJSON(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Errorf("traced report differs from the bare run:\nbare   %s\ntraced %s", want.Bytes(), got.Bytes())
				}
				if evals, calls := e.metric.evals.Load(), e.metric.calls.Load(); evals <= calls {
					t.Errorf("wrapper saw %d evaluations in %d calls: ValueBatch was not forwarded", evals, calls)
				}
				var sums registrySums
				sums.add(e.reg)
				if sums.solves == 0 {
					t.Error("no SPICE solves counted: SetTelemetry was not forwarded")
				}
			})
		}
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	q := tailQuantile(len(xs))
	above := 0
	for _, x := range xs {
		if x > quantile(xs, q) {
			above++
		}
	}
	if above != 10 {
		t.Errorf("tail quantile %.3f of 100 samples leaves %d above it, want 10", q, above)
	}
	if tailQuantile(21) != 0.5 {
		t.Errorf("21 samples resolve no tail above the median: want the median")
	}
}
