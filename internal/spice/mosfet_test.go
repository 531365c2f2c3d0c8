package spice

import (
	"math"
	"math/rand"
	"testing"
)

// TestTemplateReuseMatchesFreshCircuit reuses one transfer-curve template
// across samples that change ΔVth, the model card's VT0 and a source
// value, and checks every solve against a freshly built circuit: the
// MOSFET memos carried from sample to sample must not leak into a result.
func TestTemplateReuseMatchesFreshCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nT, pT := nmosModel(), pmosModel()
	tmpl := testCellWith(1.0, nT, pT)
	force := tmpl.AddVSource("vforce", "q", "0", 0)
	opts := &DCOptions{InitialGuess: map[string]float64{"qb": 1.0}}
	for sample := 0; sample < 40; sample++ {
		dv := make([]float64, 6)
		for i := range dv {
			dv[i] = 0.07 * rng.NormFloat64()
		}
		vt0n, vt0p := 0.35+0.03*rng.NormFloat64(), 0.35+0.03*rng.NormFloat64()
		e := []float64{0, 0.25, 0.5, 0.75, 1}[sample%5]

		nT.VT0, pT.VT0 = vt0n, vt0p
		force.E = e
		nF, pF := nmosModel(), pmosModel()
		nF.VT0, pF.VT0 = vt0n, vt0p
		fresh := testCellWith(1.0, nF, pF)
		fresh.AddVSource("vforce", "q", "0", e)
		for k, name := range []string{"m1", "m2", "m3", "m4", "m5", "m6"} {
			for _, c := range []*Circuit{tmpl, fresh} {
				m, err := c.MOSFETByName(name)
				if err != nil {
					t.Fatal(err)
				}
				m.DeltaVth = dv[k]
			}
		}

		got, err := tmpl.SolveDC(opts)
		if err != nil {
			t.Fatalf("sample %d: template: %v", sample, err)
		}
		want, err := fresh.SolveDC(opts)
		if err != nil {
			t.Fatalf("sample %d: fresh: %v", sample, err)
		}
		if !sameBits(got.x, want.x) || got.iters != want.iters || got.strategy != want.strategy {
			t.Fatalf("sample %d: template %v (%d iters, %v), fresh %v (%d iters, %v)",
				sample, got.x, got.iters, got.strategy, want.x, want.iters, want.strategy)
		}
	}
}

// TestEvalUnaffectedByStamp checks that MOSFET.Eval is pure: Stamp calls
// that fill the device's memo change none of Eval's output bits, and Eval
// agrees with the current and conductances Stamp writes.
func TestEvalUnaffectedByStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, model := range []*MOSModel{nmosModel(), pmosModel()} {
		c := NewCircuit()
		m := c.AddMOSFET("m", "d", "g", "s", "b", model)
		m.DeltaVth = 0.04
		pts := make([][4]float64, 64)
		before := make([][5]float64, len(pts))
		for i := range pts {
			for k := range pts[i] {
				pts[i][k] = 1.4*rng.Float64() - 0.2
			}
			if i%2 == 1 {
				pts[i][1], pts[i][2], pts[i][3] = pts[i-1][1], pts[i-1][2], pts[i-1][3]
			}
			id, gd, gg, gs, gb := m.Eval(pts[i][0], pts[i][1], pts[i][2], pts[i][3])
			before[i] = [5]float64{id, gd, gg, gs, gb}
		}
		for i, p := range pts {
			f := make([]float64, 4)
			full := fullTargetInto(f)
			m.Stamp(p[:], full)
			id, gd, gg, gs, gb := m.Eval(p[0], p[1], p[2], p[3])
			after := [5]float64{id, gd, gg, gs, gb}
			if !sameBits(before[i][:], after[:]) {
				t.Fatalf("%v point %d: Eval %v before Stamp, %v after", model.Type, i, before[i], after)
			}
			stamped := []float64{f[m.d], full.j.At(m.d, m.d), full.j.At(m.d, m.g), full.j.At(m.d, m.s), full.j.At(m.d, m.b)}
			if !sameBits(stamped, after[:]) {
				t.Fatalf("%v point %d: Stamp wrote %v, Eval %v", model.Type, i, stamped, after)
			}
		}
	}
}

// twoExpSoftplusSq is softplusSq with σ(u) computed from a second exp,
// 1/(1 + e^−u).
func twoExpSoftplusSq(u float64) (f, df float64) {
	switch {
	case u > 34:
		return u * u, 2 * u
	case u < -34:
		e := math.Exp(u)
		return e * e, 2 * e * e
	default:
		sp := math.Log1p(math.Exp(u))
		sg := 1 / (1 + math.Exp(-u))
		return sp * sp, 2 * sp * sg
	}
}

// TestSoftplusSqOneExp checks the one-exp softplusSq on a dense grid over
// [−34, 34] and around the branch edges: f is bit-identical to
// log1p(exp(u))², and df stays within 4 ulp of the two-exp form.
func TestSoftplusSqOneExp(t *testing.T) {
	var us []float64
	for k := -68000; k <= 68000; k++ {
		us = append(us, float64(k)/2000)
	}
	for _, edge := range []float64{-34, 34} {
		u := edge
		for k := 0; k < 4; k++ {
			u = math.Nextafter(u, math.Inf(-1))
		}
		for k := 0; k < 9; k++ {
			us = append(us, u)
			u = math.Nextafter(u, math.Inf(1))
		}
	}
	maxUlp := uint64(0)
	for _, u := range us {
		f, df := softplusSq(u)
		wantF, wantDF := twoExpSoftplusSq(u)
		if math.Float64bits(f) != math.Float64bits(wantF) {
			t.Fatalf("u=%v: f=%v, log1p(exp(u))²=%v", u, f, wantF)
		}
		if df <= 0 || wantDF <= 0 {
			t.Fatalf("u=%v: non-positive derivative %v (two-exp %v)", u, df, wantDF)
		}
		a, b := math.Float64bits(df), math.Float64bits(wantDF)
		d := a - b
		if b > a {
			d = b - a
		}
		if d > maxUlp {
			maxUlp = d
		}
		if d > 4 {
			t.Fatalf("u=%v: df=%v is %d ulp from the two-exp %v", u, df, d, wantDF)
		}
	}
	t.Logf("max df distance %d ulp over %d points", maxUlp, len(us))
}
