package spice

import "math"

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

// MOSFET channel polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// MOSModel is a charge-sheet (EKV-style) compact model card. The model is
// continuous from weak through strong inversion and symmetric in
// drain/source, which keeps Newton iteration robust — the property that
// matters for the tens of thousands of operating-point solves behind each
// failure-rate estimate.
//
// Large-signal current (bulk-referenced, NMOS polarity):
//
//	vp  = (Vgb − (VT0 + ΔVth)) / N
//	F(u) = softplus(u / (2·Vt))²
//	Id  = 2·N·β·Vt² · (F(vp − Vsb) − F(vp − Vdb)) · (1 + λ·|Vds|)
//
// with β = KP·W/L. In strong-inversion saturation this reduces to the
// square law Id ≈ β/(2N)·(Vgs − VthEff)², with an effective body-effect
// slope dVthEff/dVsb = N − 1. Subthreshold behaviour is exponential with
// slope factor N.
type MOSModel struct {
	Type MOSType
	// VT0 is the zero-bias threshold voltage magnitude in volts (positive
	// for both polarities).
	VT0 float64
	// KP is the transconductance parameter µ·Cox in A/V².
	KP float64
	// W and L are the drawn width and length in meters.
	W, L float64
	// Lambda is the channel-length-modulation coefficient in 1/V.
	Lambda float64
	// N is the subthreshold slope factor (typically 1.2–1.5).
	N float64
	// Vt is the thermal voltage kT/q (defaults to 25.85 mV at 300 K when
	// zero).
	Vt float64
}

// Beta returns KP·W/L.
func (m *MOSModel) Beta() float64 { return m.KP * m.W / m.L }

func (m *MOSModel) vt() float64 {
	if m.Vt > 0 {
		return m.Vt
	}
	return 0.02585
}

func (m *MOSModel) slope() float64 {
	if m.N > 0 {
		return m.N
	}
	return 1.3
}

// MOSFET is a model instance bound to circuit nodes. DeltaVth is the
// per-instance local threshold-voltage mismatch — the random variable of
// the paper's variation space (ΔVth1 … ΔVth6 for the 6-T cell).
type MOSFET struct {
	name       string
	d, g, s, b int
	Model      *MOSModel
	DeltaVth   float64

	// memo holds the last forward and reverse softplus terms Stamp
	// computed. Solving is single-goroutine per circuit, and the memo
	// belongs to that contract (see DESIGN.md §12).
	memo [2]softplusMemo
}

// Name returns the device name.
func (t *MOSFET) Name() string { return t.name }

// softplusMemo remembers one softplusSq argument and its result. F is a
// pure function of u, so a memo keyed on the exact bits of u can never
// go stale: a change of ΔVth, model card or bias that matters changes u.
type softplusMemo struct {
	ok    bool
	u     uint64
	f, df float64
}

// eval returns softplusSq(u), recomputing only when u differs bitwise
// from the remembered argument.
func (m *softplusMemo) eval(u float64) (f, df float64) {
	bits := math.Float64bits(u)
	if !m.ok || m.u != bits {
		m.f, m.df = softplusSq(u)
		m.u, m.ok = bits, true
	}
	return m.f, m.df
}

// mosArgs returns the arguments of the forward and reverse softplus
// terms, u_F = (vp − Vsb)/(2·Vt) and u_R = (vp − Vdb)/(2·Vt), at absolute
// node voltages in NMOS polarity. u_F depends only on the gate, source
// and bulk voltages, u_R only on the gate, drain and bulk voltages: a
// term whose three terminals are all pinned by sources has the same
// argument at every Newton iteration of a solve.
func (t *MOSFET) mosArgs(vd, vg, vs, vb float64) (uF, uR float64) {
	m := t.Model
	vt := m.vt()
	n := m.slope()

	vgb := vg - vb
	vsb := vs - vb
	vdb := vd - vb

	vp := (vgb - (m.VT0 + t.DeltaVth)) / n
	return (vp - vsb) / (2 * vt), (vp - vdb) / (2 * vt)
}

// mosCurrent assembles the NMOS-polarity drain current and its partial
// derivatives with respect to the terminal voltages from the forward
// and reverse softplus terms (fF, dF) = softplusSq(u_F) and
// (fR, dR) = softplusSq(u_R); vds is Vd − Vs.
func (t *MOSFET) mosCurrent(vds, fF, dF, fR, dR float64) (id, dId_dVd, dId_dVg, dId_dVs, dId_dVb float64) {
	m := t.Model
	vt := m.vt()
	n := m.slope()
	beta := m.Beta()

	// d/du of F wrt its voltage argument u carries the 1/(2vt) factor.
	dFdu := dF / (2 * vt)
	dRdu := dR / (2 * vt)

	i0 := 2 * n * beta * vt * vt
	iCh := i0 * (fF - fR)

	// Smooth channel-length modulation, symmetric in Vds.
	const clmEps = 1e-4
	sabs := math.Sqrt(vds*vds + clmEps*clmEps)
	clm := 1 + m.Lambda*sabs
	dClm_dVds := m.Lambda * vds / sabs

	id = iCh * clm

	// Derivatives of iCh with respect to the bulk-referenced arguments.
	diCh_dVgb := i0 * (dFdu - dRdu) / n
	diCh_dVsb := i0 * (-dFdu)
	diCh_dVdb := i0 * (dRdu)

	dId_dVg = diCh_dVgb * clm
	dId_dVs = diCh_dVsb*clm - iCh*dClm_dVds
	dId_dVd = diCh_dVdb*clm + iCh*dClm_dVds
	dId_dVb = -(dId_dVg + dId_dVs + dId_dVd)
	return id, dId_dVd, dId_dVg, dId_dVs, dId_dVb
}

// softplusSq returns f = softplus(u)² and df = d f / d u = 2·softplus(u)·σ(u),
// with overflow-safe asymptotics. In the central branch one exp serves
// both factors: softplus(u) = log1p(e^u) and σ(u) = e^u/(1 + e^u).
func softplusSq(u float64) (f, df float64) {
	switch {
	case u > 34:
		// softplus(u) ≈ u, σ(u) ≈ 1.
		return u * u, 2 * u
	case u < -34:
		// softplus(u) ≈ e^u → squares underflow harmlessly.
		e := math.Exp(u)
		return e * e, 2 * e * e
	default:
		e := math.Exp(u)
		sp := math.Log1p(e)
		sg := e / (1 + e)
		return sp * sp, 2 * sp * sg
	}
}

// Eval returns the drain current and terminal conductances at absolute
// node voltages, handling polarity. For PMOS the returned current keeps
// the NMOS sign convention of current flowing into the drain terminal
// (so a conducting PMOS pulling its drain up has negative id). Eval is
// pure: it uses a fresh memo, never the one Stamp keeps.
func (t *MOSFET) Eval(vd, vg, vs, vb float64) (id, gd, gg, gs, gb float64) {
	var memo [2]softplusMemo
	return t.mosEval(vd, vg, vs, vb, &memo)
}

// mosEval is the device evaluation behind Eval and Stamp, in two parts
// around the softplus terms: mosArgs computes their arguments, memo
// supplies softplusSq at each, and mosCurrent assembles current and
// conductances from the results.
func (t *MOSFET) mosEval(vd, vg, vs, vb float64, memo *[2]softplusMemo) (id, gd, gg, gs, gb float64) {
	// PMOS: mirror voltages; Id' (into drain) = −IdN(−V...); derivatives
	// keep their sign: dId'/dV = −dIdN/d(−V)·(−1)... which equals dIdN/dV
	// evaluated at mirrored voltages.
	pmos := t.Model.Type != NMOS
	if pmos {
		vd, vg, vs, vb = -vd, -vg, -vs, -vb
	}
	uF, uR := t.mosArgs(vd, vg, vs, vb)
	fF, dF := memo[0].eval(uF) // forward
	fR, dR := memo[1].eval(uR) // reverse
	id, gd, gg, gs, gb = t.mosCurrent(vd-vs, fF, dF, fR, dR)
	if pmos {
		id = -id
	}
	return id, gd, gg, gs, gb
}

// Stamp implements Device: current id flows drain→source through the
// channel, leaving the drain node and entering the source node. Only the
// drain and source rows carry current; a device with neither in the
// target is not evaluated at all.
func (t *MOSFET) Stamp(x []float64, st *stampTarget) {
	rd, rs := st.at(t.d), st.at(t.s)
	if rd < 0 && rs < 0 {
		return
	}
	id, gd, gg, gs, gb := t.mosEval(
		voltageAt(x, t.d), voltageAt(x, t.g),
		voltageAt(x, t.s), voltageAt(x, t.b), &t.memo)

	cols := [4]int{rd, st.at(t.g), rs, st.at(t.b)}
	grads := [4]float64{gd, gg, gs, gb}
	if rd >= 0 {
		st.f[rd] += id
		for k, c := range cols {
			if c >= 0 {
				st.j.Add(rd, c, grads[k])
			}
		}
	}
	if rs >= 0 {
		st.f[rs] -= id
		for k, c := range cols {
			if c >= 0 {
				st.j.Add(rs, c, -grads[k])
			}
		}
	}
}

// Current returns the drain current at a solved operating point.
func (t *MOSFET) Current(op *OperatingPoint) float64 {
	id, _, _, _, _ := t.Eval(
		voltageAt(op.x, t.d), voltageAt(op.x, t.g),
		voltageAt(op.x, t.s), voltageAt(op.x, t.b))
	return id
}
