package spice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestStrategyRecordedOnPlainNewton: a well-conditioned circuit must
// converge without convergence aids, and the operating point must report
// how it got there — plain Newton, a positive iteration count and a
// residual within the KCL tolerance.
func TestStrategyRecordedOnPlainNewton(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 3.0)
	c.AddResistor("r1", "in", "mid", 1000)
	c.AddResistor("r2", "mid", "0", 2000)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if op.Strategy() != StrategyNewton {
		t.Fatalf("strategy = %v, want %v", op.Strategy(), StrategyNewton)
	}
	if op.NewtonIterations() <= 0 {
		t.Fatalf("NewtonIterations = %d, want > 0", op.NewtonIterations())
	}
	if op.Residual() > 1e-9 {
		t.Fatalf("residual %v above ITol", op.Residual())
	}
}

// TestStrategySurvivesClone: warm-start flows clone operating points; the
// diagnostic fields must ride along.
func TestStrategySurvivesClone(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 1)
	c.AddResistor("r", "a", "0", 100)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := op.Clone()
	if cl.Strategy() != op.Strategy() || cl.NewtonIterations() != op.NewtonIterations() || cl.Residual() != op.Residual() {
		t.Fatalf("clone lost diagnostics: %v/%d/%v vs %v/%d/%v",
			cl.Strategy(), cl.NewtonIterations(), cl.Residual(),
			op.Strategy(), op.NewtonIterations(), op.Residual())
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		StrategyNewton: "newton",
		StrategyGmin:   "gmin-stepping",
		StrategySource: "source-stepping",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", int(s), got, want)
		}
	}
	if got := Strategy(99).String(); got != "Strategy(99)" {
		t.Errorf("unknown strategy = %q", got)
	}
}

// TestSolveTelemetry checks the spice-scope metrics for a successful
// solve: one solve counted, one Newton-iteration and one wall-time
// observation, no fallback counters touched.
func TestSolveTelemetry(t *testing.T) {
	reg := telemetry.New()
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 3.0)
	c.AddResistor("r1", "in", "mid", 1000)
	c.AddResistor("r2", "mid", "0", 2000)
	op, err := c.SolveDC(&DCOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Scope("spice")
	if got := s.Counter("solves_total").Value(); got != 1 {
		t.Fatalf("solves_total = %d, want 1", got)
	}
	if got := s.Counter("unconverged_total").Value(); got != 0 {
		t.Fatalf("unconverged_total = %d, want 0", got)
	}
	if got := s.Counter("fallback_gmin_total").Value() + s.Counter("fallback_source_total").Value(); got != 0 {
		t.Fatalf("fallback counters = %d on a plain-Newton solve", got)
	}
	h := s.Histogram("newton_iterations", nil)
	if h.Count() != 1 || h.Sum() != float64(op.NewtonIterations()) {
		t.Fatalf("newton_iterations histogram: count=%d sum=%v, want 1/%d",
			h.Count(), h.Sum(), op.NewtonIterations())
	}
	if got := s.Histogram("solve_seconds", nil).Count(); got != 1 {
		t.Fatalf("solve_seconds count = %d, want 1", got)
	}
}

// TestUnconvergedTelemetry drives the full escalation chain to failure: a
// current source into a node whose only DC path to ground is the 1e-12 S
// gmin shunt wants ~1e9 V, far beyond MaxStep×MaxIter for plain Newton,
// every gmin relaxation level and every source-stepping fraction. The
// error must wrap ErrNoConvergence and be counted and emitted, and its
// iterations observed.
func TestUnconvergedTelemetry(t *testing.T) {
	var buf strings.Builder
	reg := telemetry.New()
	reg.SetSink(telemetry.NewEventSink(&buf))
	c := NewCircuit()
	c.AddISource("i1", "0", "n", 1e-3)
	_, err := c.SolveDC(&DCOptions{Telemetry: reg, MaxIter: 25})
	if err == nil {
		t.Fatal("expected convergence failure")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error %v does not wrap ErrNoConvergence", err)
	}
	s := reg.Scope("spice")
	if got := s.Counter("unconverged_total").Value(); got != 1 {
		t.Fatalf("unconverged_total = %d, want 1", got)
	}
	if got := s.Counter("solves_total").Value(); got != 0 {
		t.Fatalf("solves_total = %d after a failed solve", got)
	}
	if !strings.Contains(buf.String(), `"event":"spice.unconverged"`) {
		t.Fatalf("no spice.unconverged event emitted:\n%s", buf.String())
	}
	// The failed solve's iterations are observed too: the 25 of the
	// plain attempt plus every fallback's.
	if h := s.Histogram("newton_iterations", nil); h.Count() != 1 || h.Sum() <= 25 {
		t.Fatalf("newton_iterations count=%d sum=%v, want one solve of more than 25 iterations", h.Count(), h.Sum())
	}
}

// TestSingleAttemptNoFallback: a SingleAttempt solve of the circuit
// above stops after exactly MaxIter plain-Newton iterations with
// ErrNoConvergence — no gmin or source stepping runs — and is counted
// in capped_total and newton_iterations, not as unconverged, with no
// event emitted.
func TestSingleAttemptNoFallback(t *testing.T) {
	var buf strings.Builder
	reg := telemetry.New()
	reg.SetSink(telemetry.NewEventSink(&buf))
	c := NewCircuit()
	c.AddISource("i1", "0", "n", 1e-3)
	_, err := c.SolveDC(&DCOptions{Telemetry: reg, MaxIter: 25, SingleAttempt: true})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error %v, want ErrNoConvergence", err)
	}
	s := reg.Scope("spice")
	for name, want := range map[string]int64{
		"capped_total": 1, "unconverged_total": 0, "solves_total": 0,
		"fallback_gmin_total": 0, "fallback_source_total": 0,
	} {
		if got := s.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h := s.Histogram("newton_iterations", nil)
	if h.Count() != 1 || h.Sum() != 25 {
		t.Fatalf("newton_iterations count=%d sum=%v, want one attempt of exactly MaxIter=25", h.Count(), h.Sum())
	}
	if buf.Len() != 0 {
		t.Fatalf("capped solve emitted events:\n%s", buf.String())
	}
}

// TestSingleAttemptMatchesPlainNewton: on a circuit plain Newton
// solves, SingleAttempt is exactly SolveDC's first attempt — the same
// unknown vector bit for bit, the same iterations and strategy.
func TestSingleAttemptMatchesPlainNewton(t *testing.T) {
	build := func() *Circuit {
		c := NewCircuit()
		c.AddVSource("vdd", "vdd", "0", 1.0)
		c.AddVSource("vin", "in", "0", 0.45)
		c.AddResistor("rl", "vdd", "out", 20e3)
		c.AddMOSFET("m1", "out", "in", "0", "0", &MOSModel{
			Type: NMOS, VT0: 0.32, KP: 300e-6, W: 240e-9, L: 100e-9, Lambda: 0.1, N: 1.3,
		})
		return c
	}
	guess := map[string]float64{"out": 1.0}
	want, err := build().SolveDC(&DCOptions{InitialGuess: guess})
	if err != nil {
		t.Fatal(err)
	}
	if want.Strategy() != StrategyNewton {
		t.Fatalf("reference solve used %v, want plain Newton", want.Strategy())
	}
	got, err := build().SolveDC(&DCOptions{InitialGuess: guess, SingleAttempt: true, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy() != want.Strategy() || got.NewtonIterations() != want.NewtonIterations() {
		t.Fatalf("single attempt %v/%d iterations, full solve %v/%d",
			got.Strategy(), got.NewtonIterations(), want.Strategy(), want.NewtonIterations())
	}
	for i := range want.x {
		if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
			t.Fatalf("unknown %d: single attempt %v, full solve %v", i, got.x[i], want.x[i])
		}
	}
}
