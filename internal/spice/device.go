package spice

import "repro/internal/linalg"

// Device is anything that stamps residual currents and Jacobian
// conductances into the MNA system. The residual convention is
// f(node) = Σ currents *leaving* the node through devices; Newton solves
// f(x) = 0.
type Device interface {
	Name() string
	// Stamp adds the device's contribution at operating point x to the
	// residual and Jacobian of the target system. Rows and slots the
	// target does not carry are dropped.
	Stamp(x []float64, st *stampTarget)
}

// stampTarget is the system a device stamps into. row maps a full-MNA
// unknown index to its index in the target, or -1 when the target does
// not carry that unknown; ground (index -1) is never carried. The Newton
// loop stamps straight into the reduced system over the plan's free
// unknowns, so a contribution to a pinned row or column is dropped
// rather than written to a full matrix and discarded later. Each kept
// residual row and Jacobian slot receives exactly the additions, in
// exactly the order, that the full system would have given it.
type stampTarget struct {
	row []int
	f   []float64
	j   *linalg.Matrix
}

// at returns the target index of full-system unknown i, or -1.
func (st *stampTarget) at(i int) int {
	if i < 0 {
		return -1
	}
	return st.row[i]
}

// addF adds v to the residual row of full-system unknown i.
func (st *stampTarget) addF(i int, v float64) {
	if r := st.at(i); r >= 0 {
		st.f[r] += v
	}
}

// addJ adds v to the Jacobian slot (i, k) of the full system.
func (st *stampTarget) addJ(i, k int, v float64) {
	if r, c := st.at(i), st.at(k); r >= 0 && c >= 0 {
		st.j.Add(r, c, v)
	}
}

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name string
	p, m int
	g    float64 // conductance
}

// Name returns the device name.
func (r *Resistor) Name() string { return r.name }

// Stamp implements Device.
func (r *Resistor) Stamp(x []float64, st *stampTarget) {
	stampConductance(x, st, r.p, r.m, r.g, 0)
}

// stampConductance stamps a conductance g in parallel with a current
// source ieq flowing m → p (the capacitor's companion model; ieq = 0 for
// a resistor): the current leaving p is g·(V(p) − V(m)) − ieq.
func stampConductance(x []float64, st *stampTarget, p, m int, g, ieq float64) {
	i := g*(voltageAt(x, p)-voltageAt(x, m)) - ieq
	st.addF(p, i)
	st.addJ(p, p, g)
	st.addJ(p, m, -g)
	st.addF(m, -i)
	st.addJ(m, m, g)
	st.addJ(m, p, -g)
}

// VSource is an independent voltage source with an MNA branch current.
type VSource struct {
	name   string
	p, m   int
	branch int
	// E is the source value in volts; sweeps mutate it between solves.
	E float64
	// Waveform, when non-nil, makes the source time-varying during
	// transient analysis: E is set to Waveform(t) at every step. DC
	// analyses use E directly.
	Waveform func(t float64) float64
}

// StepWaveform returns a waveform that switches from v0 to v1 at tStep
// with a linear ramp of length tRise.
func StepWaveform(v0, v1, tStep, tRise float64) func(float64) float64 {
	return func(t float64) float64 {
		switch {
		case t <= tStep:
			return v0
		case t >= tStep+tRise:
			return v1
		default:
			return v0 + (v1-v0)*(t-tStep)/tRise
		}
	}
}

// PulseWaveform returns a waveform that pulses from v0 to v1 between
// tOn and tOff with symmetric linear ramps of length tRise.
func PulseWaveform(v0, v1, tOn, tOff, tRise float64) func(float64) float64 {
	up := StepWaveform(v0, v1, tOn, tRise)
	down := StepWaveform(0, v0-v1, tOff, tRise)
	return func(t float64) float64 { return up(t) + down(t) }
}

// Name returns the device name.
func (v *VSource) Name() string { return v.name }

// Stamp implements Device. The branch current x[branch] flows from the
// plus terminal through the source to the minus terminal.
func (v *VSource) Stamp(x []float64, st *stampTarget) {
	i := x[v.branch]
	st.addF(v.p, i)
	st.addJ(v.p, v.branch, 1)
	st.addF(v.m, -i)
	st.addJ(v.m, v.branch, -1)
	// Branch equation: V(p) − V(m) − E = 0.
	st.addF(v.branch, voltageAt(x, v.p)-voltageAt(x, v.m)-v.E)
	st.addJ(v.branch, v.p, 1)
	st.addJ(v.branch, v.m, -1)
}

// Current returns the branch current at a solved operating point.
func (v *VSource) Current(op *OperatingPoint) float64 { return op.x[v.branch] }

// ISource is an independent current source pushing I from plus to minus
// through itself.
type ISource struct {
	name string
	p, m int
	I    float64
}

// Name returns the device name.
func (s *ISource) Name() string { return s.name }

// Stamp implements Device.
func (s *ISource) Stamp(x []float64, st *stampTarget) {
	st.addF(s.p, s.I)
	st.addF(s.m, -s.I)
}
