package sram

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/spice"
	"repro/internal/telemetry"
)

// wnmRaw evaluates the WNM metric's raw write-trip values (before the
// spec offset) for xs on one engine.
func wnmRaw(m *Metric, xs [][]float64) ([]float64, []error, [][]float64) {
	e := m.getEngine()
	defer m.putEngine(e)
	rows := e.dvthRows(m, xs)
	saved := make([][]float64, len(rows))
	for i, r := range rows {
		saved[i] = append([]float64(nil), r...)
	}
	out := make([]float64, len(xs))
	errs := make([]error, len(xs))
	m.rawBatch(e, rows, out, errs)
	return out, errs, saved
}

// TestWriteTripMatchesWNMMetric: Cell.WriteTrip (used by cmd/calibrate
// and cmd/butterfly) and the WNM metric run one search with one probe
// convention, so they agree bit for bit, hard corners included.
func TestWriteTripMatchesWNMMetric(t *testing.T) {
	m := WNMWorkload()
	xs := equivalenceSamples(11, 48, m.Dim())
	raw, errs, rows := wnmRaw(m, xs)
	for i, row := range rows {
		var d [NumTransistors]float64
		copy(d[:], row)
		got, err := m.Cell.WriteTrip(d)
		if (err != nil) != (errs[i] != nil) {
			t.Fatalf("sample %d: WriteTrip error %v, metric error %v", i, err, errs[i])
		}
		if math.Float64bits(got) != math.Float64bits(raw[i]) {
			t.Fatalf("sample %d (x=%v): WriteTrip %v != metric raw %v", i, xs[i], got, raw[i])
		}
	}
}

// fullLadderProbe is the write-trip probe convention before interior
// probes were capped: every probe, interior or endpoint, runs the full
// solve ladder, and only a ladder failure counts as flipped.
func fullLadderProbe(p writeProbe) writeProbe {
	return func(bl float64, _ bool) (bool, error) { return p(bl, true) }
}

// TestWriteTripCappedProbeDrift is the oracle for the capped interior
// probes: over 4,000 seeded points at 2.5·N(0, I) plus the equivalence
// suite's samples (hard corners included), the write-trip values may
// move against the full-ladder classification on at most 1% of points,
// and no point may change pass/fail at WNMSpec or move at all within
// 100 mV of it. On every moved point Cell.WriteTrip must return the
// capped value.
//
// The largest move is bounded by 25 mV, the width of the bracket after
// six halvings: a probe that plain Newton fails to settle within the
// cap but the full ladder finds unflipped moves the trip by at most the
// bracket it was probing. On this data 23 of 4,064 values move, the
// largest by 20.8 mV (a probe whose plain Newton converges in 31
// iterations) and the next by 11.3 mV (a probe where plain Newton
// cycles forever and only gmin stepping finds the unflipped state, so
// no cap removes it); every moved value lies above 0.32 V, far from
// WNMSpec.
func TestWriteTripCappedProbeDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("4,000 write-trip searches twice over; run without -short")
	}
	c := Default90nm()
	rng := rand.New(rand.NewSource(2025))
	pts := equivalenceSamples(11, 64, NumTransistors)
	for i := 0; i < 4000; i++ {
		x := make([]float64, NumTransistors)
		for j := range x {
			x[j] = 2.5 * rng.NormFloat64()
		}
		pts = append(pts, x)
	}

	type outcome struct{ capped, full float64 }
	res := make([]outcome, len(pts))
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tmpl, err := newCellTemplate(c, ReadConfig)
			if err != nil {
				t.Error(err)
				return
			}
			probe := c.newWriteProbe(tmpl.ckt, tmpl.vbl)
			value := func(p writeProbe) float64 {
				v, err := writeTripSearch(c.VDD, p)
				if err != nil {
					return WriteTripFloor // the metric's errorValue
				}
				return v
			}
			row := make([]float64, NumTransistors)
			for i := w; i < len(pts); i += workers {
				for j, x := range pts[i] {
					row[j] = c.SigmaVth * x
				}
				tmpl.setDvth(row)
				res[i] = outcome{capped: value(probe), full: value(fullLadderProbe(probe))}
			}
		}(w)
	}
	wg.Wait()

	changed, maxDelta := 0, 0.0
	for i, r := range res {
		if (r.capped < WNMSpec) != (r.full < WNMSpec) {
			t.Errorf("point %d (x=%v) changed pass/fail: capped %v, full ladder %v", i, pts[i], r.capped, r.full)
		}
		if r.capped == r.full {
			continue
		}
		changed++
		maxDelta = math.Max(maxDelta, math.Abs(r.capped-r.full))
		// Where the conventions disagree, WriteTrip must follow the
		// capped one, as the metric does.
		var d [NumTransistors]float64
		for j, x := range pts[i] {
			d[j] = c.SigmaVth * x
		}
		if wt, err := c.WriteTrip(d); err != nil || wt != r.capped {
			t.Errorf("point %d: WriteTrip %v (err %v), capped search %v", i, wt, err, r.capped)
		}
		if math.Abs(r.full-WNMSpec) < 0.1 {
			t.Errorf("point %d (x=%v) moved within 100 mV of WNMSpec: capped %v, full ladder %v", i, pts[i], r.capped, r.full)
		}
	}
	t.Logf("%d of %d write-trip values moved, max |Δ| = %.3g V", changed, len(res), maxDelta)
	if changed > len(res)/100 {
		t.Errorf("%d of %d values moved, want at most 1%%", changed, len(res))
	}
	if maxDelta > 0.025 {
		t.Errorf("max |Δ| = %v V, want at most 25 mV", maxDelta)
	}
}

// TestWriteTripProbeTelemetry: every write-trip probe is counted. For
// samples whose trip lies strictly inside (WriteTripFloor, VDD) all 16
// probes run, each either a converged solve (solves_total) or a capped
// one (capped_total), and each contributes its iterations to
// newton_iterations — a capped probe exactly writeProbeMaxIter. Capped
// probes emit no spice.unconverged event.
func TestWriteTripProbeTelemetry(t *testing.T) {
	m := WNMWorkload()
	rng := rand.New(rand.NewSource(9))
	var xs [][]float64
	for len(xs) < 12 {
		x := make([]float64, m.Dim())
		for j := range x {
			x[j] = 1.8 * rng.NormFloat64()
		}
		raw, errs, _ := wnmRaw(m, [][]float64{x})
		if errs[0] == nil && raw[0] != WriteTripFloor && raw[0] != m.Cell.VDD {
			xs = append(xs, x)
		}
	}

	// Replay every probe without telemetry to learn its iterations.
	wantIters, wantCapped := 0, 0
	tmpl, err := newCellTemplate(m.Cell, ReadConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		row := make([]float64, NumTransistors)
		for j, v := range x {
			row[j] = m.Cell.SigmaVth * v
		}
		tmpl.setDvth(row)
		_, err := writeTripSearch(m.Cell.VDD, func(bl float64, endpoint bool) (bool, error) {
			tmpl.vbl.E = bl
			opts := &spice.DCOptions{InitialGuess: map[string]float64{"q": m.Cell.VDD, "qb": 0}, NoBranchCurrents: true}
			if !endpoint {
				opts.SingleAttempt, opts.MaxIter = true, writeProbeMaxIter
			}
			op, err := tmpl.ckt.SolveDC(opts)
			if err != nil {
				if endpoint || !errors.Is(err, spice.ErrNoConvergence) {
					t.Fatalf("probe at BL=%v: %v", bl, err)
				}
				wantCapped++
				wantIters += writeProbeMaxIter
				return true, err
			}
			wantIters += op.NewtonIterations()
			return op.Voltage("q") < 0.5*m.Cell.VDD, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if wantCapped == 0 {
		t.Fatal("no interior probe hit the cap; the sample set does not exercise it")
	}

	reg := telemetry.New()
	var events strings.Builder
	reg.SetSink(telemetry.NewEventSink(&events))
	m.SetTelemetry(reg)
	out := make([]float64, len(xs))
	m.ValueBatch(xs, out)

	s := reg.Scope("spice")
	solves, capped := s.Counter("solves_total").Value(), s.Counter("capped_total").Value()
	if want := int64(16 * len(xs)); solves+capped != want {
		t.Fatalf("solves_total %d + capped_total %d = %d, want 16 × %d evaluations = %d",
			solves, capped, solves+capped, len(xs), want)
	}
	if capped != int64(wantCapped) {
		t.Fatalf("capped_total = %d, replay capped %d probes", capped, wantCapped)
	}
	h := s.Histogram("newton_iterations", nil)
	if h.Count() != solves+capped || h.Sum() != float64(wantIters) {
		t.Fatalf("newton_iterations count %d sum %v, want %d / %d", h.Count(), h.Sum(), solves+capped, wantIters)
	}
	if got := s.Counter("unconverged_total").Value(); got != 0 {
		t.Fatalf("unconverged_total = %d, want 0", got)
	}
	if strings.Contains(events.String(), "spice.unconverged") {
		t.Fatalf("capped probes emitted spice.unconverged events:\n%s", events.String())
	}
}
