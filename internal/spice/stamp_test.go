package spice

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// fullTargetInto returns a target that carries every unknown of a
// len(f)-unknown system: residual rows land in f, and the Jacobian is a
// fresh full-size matrix.
func fullTargetInto(f []float64) *stampTarget {
	n := len(f)
	row := make([]int, n)
	for i := range row {
		row[i] = i
	}
	return &stampTarget{row: row, f: f, j: linalg.NewMatrix(n, n)}
}

// gatheredSystem is the reference the reduced stamp replaced: stamp every
// device into the full MNA residual and Jacobian, add the gmin shunts on
// the free nodes, then gather the rows and columns of the free unknowns.
// MOSFETs stamp as they did before the reduced system existed, through
// the pure Eval and straight into the full matrix.
func gatheredSystem(c *Circuit, plan *solvePlan, x []float64, gmin float64) ([]float64, *linalg.Matrix) {
	f := make([]float64, c.NumUnknowns())
	full := fullTargetInto(f)
	for _, d := range c.devices {
		if m, ok := d.(*MOSFET); ok {
			fullMOSFETStamp(m, x, f, full.j)
			continue
		}
		d.Stamp(x, full)
	}
	for a := 0; a < plan.freeNodes; a++ {
		i := plan.free[a]
		f[i] += gmin * x[i]
		full.j.Add(i, i, gmin)
	}
	r := len(plan.free)
	fr := make([]float64, r)
	jr := linalg.NewMatrix(r, r)
	for a, ia := range plan.free {
		fr[a] = f[ia]
		for b, ib := range plan.free {
			jr.Set(a, b, full.j.At(ia, ib))
		}
	}
	return fr, jr
}

// fullMOSFETStamp is the MOSFET stamp into the full MNA system.
func fullMOSFETStamp(t *MOSFET, x, f []float64, j *linalg.Matrix) {
	id, gd, gg, gs, gb := t.Eval(voltageAt(x, t.d), voltageAt(x, t.g), voltageAt(x, t.s), voltageAt(x, t.b))
	nodes := [4]int{t.d, t.g, t.s, t.b}
	grads := [4]float64{gd, gg, gs, gb}
	if t.d >= 0 {
		f[t.d] += id
		for k, nk := range nodes {
			if nk >= 0 {
				j.Add(t.d, nk, grads[k])
			}
		}
	}
	if t.s >= 0 {
		f[t.s] -= id
		for k, nk := range nodes {
			if nk >= 0 {
				j.Add(t.s, nk, -grads[k])
			}
		}
	}
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// testCell builds a 6-T cell in the read configuration (word line and
// both bit lines at vdd), mirroring the sram package's netlist.
func testCell(vdd float64) *Circuit { return testCellWith(vdd, nmosModel(), pmosModel()) }

// testCellWith is testCell with caller-owned model cards.
func testCellWith(vdd float64, n, p *MOSModel) *Circuit {
	c := NewCircuit()
	c.AddVSource("vdd", "vdd", "0", vdd)
	c.AddVSource("vwl", "wl", "0", vdd)
	c.AddVSource("vbl", "bl", "0", vdd)
	c.AddVSource("vblb", "blb", "0", vdd)
	c.AddMOSFET("m1", "q", "qb", "0", "0", n)
	c.AddMOSFET("m2", "qb", "q", "0", "0", n)
	c.AddMOSFET("m3", "bl", "wl", "q", "0", n)
	c.AddMOSFET("m4", "blb", "wl", "qb", "0", n)
	c.AddMOSFET("m5", "q", "qb", "vdd", "vdd", p)
	c.AddMOSFET("m6", "qb", "q", "vdd", "vdd", p)
	return c
}

// stampCircuits are the topologies the reduced-stamp oracle covers.
func stampCircuits() map[string]func() *Circuit {
	return map[string]func() *Circuit{
		"read-cell": func() *Circuit { return testCell(1.0) },
		"transfer-curve": func() *Circuit {
			c := testCell(1.0)
			c.AddVSource("vforce", "q", "0", 0.4)
			return c
		},
		"floating-vsource": func() *Circuit {
			c := NewCircuit()
			c.AddVSource("vdd", "vdd", "0", 1.0)
			c.AddVSource("vf", "a", "b", 0.3) // keeps its branch unknown
			c.AddResistor("ra", "vdd", "a", 2e4)
			c.AddResistor("rb", "b", "0", 5e4)
			c.AddMOSFET("mn", "out", "a", "0", "0", nmosModel())
			c.AddMOSFET("mp", "out", "b", "vdd", "vdd", pmosModel())
			c.AddISource("ib", "out", "0", 1e-7)
			return c
		},
		"rc-companion": func() *Circuit {
			c := NewCircuit()
			c.AddVSource("vin", "in", "0", 0.8)
			c.AddResistor("r1", "in", "mid", 1e4)
			c.AddResistor("r2", "mid", "out", 3e4)
			c1 := c.AddCapacitor("c1", "mid", "0", 2e-15)
			c2 := c.AddCapacitor("c2", "mid", "out", 1e-15)
			c.AddMOSFET("mn", "out", "mid", "0", "0", nmosModel())
			c1.active, c1.geq, c1.ieq = true, 2e-15/1e-12, 1.5e-3
			c2.active, c2.geq, c2.ieq = true, 1e-15/1e-12, -0.4e-3
			return c
		},
		"ic-pins": func() *Circuit {
			c := testCell(1.0)
			c.devices = append(c.devices, &pinStamp{
				pins: []nodePin{{idx: c.nodeIndex["q"], v: 0}, {idx: c.nodeIndex["qb"], v: 1}},
				g:    1e6,
			})
			c.plan = nil
			return c
		},
	}
}

// TestReducedStampMatchesFullGather checks the Newton loop's reduced
// residual and Jacobian against the full-MNA stamp-and-gather they
// replaced, bit for bit, over seeded ΔVth and bias points. Pinned nodes
// sit at their source values, as in Newton, so terms with all-pinned
// terminals hit the MOSFET memo on the reduced path.
func TestReducedStampMatchesFullGather(t *testing.T) {
	for name, build := range stampCircuits() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			c := build()
			plan, ws := c.solverState()
			for trial := 0; trial < 200; trial++ {
				if trial%20 == 0 {
					for _, d := range c.devices {
						if m, ok := d.(*MOSFET); ok {
							m.DeltaVth = 0.08 * rng.NormFloat64()
						}
					}
				}
				x := make([]float64, c.NumUnknowns())
				for i := range x {
					x[i] = 1.2*rng.Float64() - 0.1
				}
				for _, pin := range plan.pins {
					x[pin.node] = pin.sign * pin.vs.E
					x[pin.vs.branch] = 0
				}
				gmin := []float64{1e-12, 1e-3}[trial%2]

				c.stampReduced(plan, ws, x, gmin)
				gotF := append([]float64(nil), ws.sys.f...)
				gotJ := append([]float64(nil), ws.sys.j.Data...)
				wantF, wantJ := gatheredSystem(c, plan, x, gmin)
				if !sameBits(gotF, wantF) {
					t.Fatalf("trial %d: reduced residual %v, gathered %v", trial, gotF, wantF)
				}
				if !sameBits(gotJ, wantJ.Data) {
					t.Fatalf("trial %d: reduced Jacobian %v, gathered %v", trial, gotJ, wantJ.Data)
				}
			}
		})
	}
}

// TestRecoveredBranchesMatchFullStamp checks branch recovery through the
// pinned-row target against the full-MNA residual at the same point.
func TestRecoveredBranchesMatchFullStamp(t *testing.T) {
	c := testCell(1.0)
	c.AddVSource("vforce", "q", "0", 0.3)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), op.x...)
	for _, pin := range c.plan.pins {
		x[pin.vs.branch] = 0
	}
	f := make([]float64, len(x))
	full := fullTargetInto(f)
	for _, d := range c.devices {
		d.Stamp(x, full)
	}
	for _, pin := range c.plan.pins {
		want := -pin.sign * f[pin.node]
		if got := op.x[pin.vs.branch]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: recovered %v, full stamp %v", pin.vs.name, got, want)
		}
	}
}
