package spice

import (
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Telemetry metric names live in the "spice" scope:
//
//	solves_total              converged DC solves
//	unconverged_total         solves that exhausted every strategy
//	capped_total              SingleAttempt solves whose one plain
//	                          Newton attempt ended unconverged (no
//	                          fallback, no event)
//	fallback_gmin_total       solves rescued by gmin stepping
//	fallback_source_total     solves rescued by source stepping
//	warm_hit_total            warm-start attempts that converged
//	warm_fallback_total       warm-start attempts that fell back cold
//	solve_seconds             wall time per solve (histogram; sampled
//	                          1-in-8 unless a trace span is active —
//	                          see startSolveClock)
//	newton_iterations         Newton iterations per solve, all attempts,
//	                          for converged, unconverged and capped
//	                          solves alike
//	residual                  max-|KCL| residual at convergence
//
// plus the rare events "spice.fallback" and "spice.unconverged".

// Bucket layouts, precomputed so the per-solve path never allocates.
var (
	solveSecondsBuckets = telemetry.ExpBuckets(1e-6, 10, 7)  // 1µs .. 1s
	newtonIterBuckets   = telemetry.ExpBuckets(1, 2, 10)     // 1 .. 512
	residualBuckets     = telemetry.ExpBuckets(1e-15, 10, 9) // 1e-15 .. 1e-7
)

// dcTelemetry holds the per-solve metric handles; the zero value (from a
// nil registry) is fully inert.
type dcTelemetry struct {
	solves, unconverged    *telemetry.Counter
	capped                 *telemetry.Counter
	gminFalls, sourceFalls *telemetry.Counter
	warmHits, warmFalls    *telemetry.Counter
	solveSeconds           *telemetry.Histogram
	newtonIters            *telemetry.Histogram
	residual               *telemetry.Histogram
}

// dcTel returns the solve-metric handles for reg, memoized on the
// circuit: repeated solves against the same registry (sweeps, batches)
// resolve the scope and metric names once instead of per solve.
func (c *Circuit) dcTel(reg *telemetry.Registry) dcTelemetry {
	if reg == nil {
		return dcTelemetry{}
	}
	if c.telReg != reg {
		c.telCache = newDCTelemetry(reg)
		c.telReg = reg
	}
	return c.telCache
}

// solveClockPeriod is the sampling period of the per-solve wall-time
// stopwatch: batch workloads run tens of thousands of ~100µs solves,
// where two clock reads per solve are a measurable fraction of the
// solve itself. solve_seconds is only consumed as a latency quantile
// estimate, so a 1-in-8 systematic sample preserves p50/p99 fidelity at
// an eighth of the overhead. Counters and the iteration/residual
// histograms still see every solve.
const solveClockPeriod = 8

// startSolveClock starts the (possibly inert) stopwatch for one solve
// and reports the active trace span, if any. The first of every
// solveClockPeriod solves is timed; an active span forces timing so
// per-stage "spice.solve" aggregates stay complete while tracing.
func (c *Circuit) startSolveClock(tel dcTelemetry, reg *telemetry.Registry) (telemetry.Stopwatch, *telemetry.Span) {
	span := reg.ActiveSpan()
	c.solveTick++
	if span == nil && c.solveTick%solveClockPeriod != 1 {
		return telemetry.Stopwatch{}, nil
	}
	return tel.solveSeconds.Start(), span
}

// fail records a solve that exhausted every strategy (or could not
// start) and returns err.
func (t dcTelemetry) fail(reg *telemetry.Registry, err error) error {
	t.unconverged.Inc()
	if reg.Enabled() {
		reg.Emit(wire.EvSpiceUnconverged, map[string]any{"error": err.Error()})
	}
	return err
}

func newDCTelemetry(reg *telemetry.Registry) dcTelemetry {
	if reg == nil {
		return dcTelemetry{}
	}
	s := reg.Scope(wire.ScopeSpice)
	return dcTelemetry{
		solves:       s.Counter("solves_total"),
		unconverged:  s.Counter("unconverged_total"),
		capped:       s.Counter("capped_total"),
		gminFalls:    s.Counter("fallback_gmin_total"),
		sourceFalls:  s.Counter("fallback_source_total"),
		warmHits:     s.Counter("warm_hit_total"),
		warmFalls:    s.Counter("warm_fallback_total"),
		solveSeconds: s.Histogram("solve_seconds", solveSecondsBuckets),
		newtonIters:  s.Histogram("newton_iterations", newtonIterBuckets),
		residual:     s.Histogram("residual", residualBuckets),
	}
}
