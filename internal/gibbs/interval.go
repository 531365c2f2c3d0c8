package gibbs

import (
	"math"
	"runtime"
)

// intervalStatus classifies one interval search, the chain-telemetry
// distinction between a healthy update and one that needed rescuing.
type intervalStatus int

const (
	// intervalNone: no failing segment found; the caller keeps the
	// current coordinate value.
	intervalNone intervalStatus = iota
	// intervalAtCurrent: the current value still fails; the interval was
	// bracketed directly from it.
	intervalAtCurrent
	// intervalRecovered: the current value passes and the coarse scan
	// recovered a failing segment elsewhere.
	intervalRecovered
)

// failureIntervalStat implements step 2 of the paper's Algorithm 3:
// locate a contiguous 1-D failure interval [u, v] ⊆ [lo, hi] along the
// coordinate being resampled, by bracketing and bisection against the
// pass/fail indicator, and classify how the search ended.
//
// The search starts from t0 (the chain's current coordinate value, which
// normally fails). If t0 passes — the chain can drift out when other
// coordinates moved the arc (paper §V-B discussion) — a coarse scan over
// [lo, hi] recovers the failing segment nearest to t0; if the scan finds
// nothing, st is intervalNone and the caller keeps the current value.
//
// When the failure region touches a bound, that bound is returned as the
// boundary (the paper's "bound the high-probability failure region by
// constraining x_m within [−ζ, ζ]").
//
// down and up report failure at a coordinate value t, each call costing
// one transistor-level simulation. They are two probes of the same
// indicator, one per side of the search: up walks to v and takes the
// first half of the scan, down walks to u and takes t0 and the second
// half. When o.concurrent(), up runs on its own goroutine, so the two
// must share no mutable state. Every probe is a pure function of t, so
// the probe set, the interval and the status do not depend on whether
// the sides ran concurrently.
func failureIntervalStat(down, up func(float64) bool, t0, lo, hi float64, o *Options) (u, v float64, st intervalStatus) {
	if t0 < lo {
		t0 = lo
	}
	if t0 > hi {
		t0 = hi
	}
	concurrent := o.concurrent()
	st = intervalAtCurrent
	if !down(t0) {
		n := o.ScanPoints
		scanAt := func(i int) float64 { return lo + (hi-lo)*(float64(i)+0.5)/float64(n) }
		fails := make([]bool, n)
		scan := func(probe func(float64) bool, from, to int) {
			for i := from; i < to; i++ {
				fails[i] = probe(scanAt(i))
			}
		}
		both(concurrent, func() { scan(up, 0, n/2) }, func() { scan(down, n/2, n) })
		best, found := 0.0, false
		bestDist := hi - lo + 1
		for i, fail := range fails {
			if !fail {
				continue
			}
			t := scanAt(i)
			if d := math.Abs(t - t0); d < bestDist {
				best, bestDist, found = t, d, true
			}
		}
		if !found {
			return 0, 0, intervalNone
		}
		t0 = best
		st = intervalRecovered
	}
	both(concurrent,
		func() { v = expand(up, t0, hi, +o.ExpandStep, o.Bisections) },
		func() { u = expand(down, t0, lo, -o.ExpandStep, o.Bisections) })
	return u, v, st
}

// concurrent reports whether an interval search runs its two sides on
// two goroutines: the worker count is resolved as mc.NewEvaluator
// resolves it (≤ 0 selects GOMAXPROCS), and one worker keeps the search
// serial.
func (o *Options) concurrent() bool {
	w := o.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w >= 2
}

// both runs first and then second when serial. When concurrent it runs
// first on its own goroutine and second on the caller's, and returns
// once both are done.
func both(concurrent bool, first, second func()) {
	if !concurrent {
		first()
		second()
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		first()
	}()
	second()
	<-done
}

// sides holds the per-side state of one chain's interval searches: a
// scratch point and a simulation count for each of the down (0) and up
// (1) sides, so the two probes share nothing they write.
type sides struct {
	buf [2][]float64
	n   [2]int
}

func newSides(dim int) *sides {
	return &sides{buf: [2][]float64{make([]float64, dim), make([]float64, dim)}}
}

// probes starts one interval search: it zeroes the counts, copies cur
// into each side's scratch point and returns the down and up probes.
// Each probe counts one simulation and calls fail with its own side's
// scratch point, which fail may overwrite.
func (s *sides) probes(cur []float64, fail func(buf []float64, t float64) bool) (down, up func(float64) bool) {
	s.n = [2]int{}
	side := func(i int) func(float64) bool {
		buf := s.buf[i]
		copy(buf, cur)
		return func(t float64) bool {
			s.n[i]++
			return fail(buf, t)
		}
	}
	return side(0), side(1)
}

// count is the number of simulations both sides probed, read after the
// search has returned.
func (s *sides) count() int { return s.n[0] + s.n[1] }

// expand walks from the failing point t0 toward bound in geometrically
// growing steps until the indicator passes or the bound is hit, then
// bisects the boundary. A positive step walks up, negative walks down.
func expand(probe func(float64) bool, t0, bound, step float64, bisections int) float64 {
	tFail := t0
	for {
		tn := tFail + step
		if (step > 0 && tn >= bound) || (step < 0 && tn <= bound) {
			if probe(bound) {
				return bound
			}
			return bisect(probe, tFail, bound, bisections)
		}
		if probe(tn) {
			tFail = tn
			step *= 2
		} else {
			return bisect(probe, tFail, tn, bisections)
		}
	}
}

// bisect refines the boundary between a failing point and a passing point,
// returning the failing-side estimate.
func bisect(probe func(float64) bool, tFail, tPass float64, iters int) float64 {
	for i := 0; i < iters; i++ {
		mid := 0.5 * (tFail + tPass)
		if probe(mid) {
			tFail = mid
		} else {
			tPass = mid
		}
	}
	return tFail
}
