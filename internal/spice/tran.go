package spice

import (
	"errors"
	"fmt"
)

// This file adds transient analysis to the DC engine: capacitors with
// backward-Euler / trapezoidal companion models, time-varying sources,
// and a fixed-step integrator. The SRAM package uses it for the dynamic
// metrics (bitline discharge / access time, write delay) that motivate
// the paper's read-current experiment.

// Capacitor is a linear two-terminal capacitor. During DC analysis it is
// an open circuit; during transient analysis the integrator replaces it
// with a conductance + history-current companion model.
type Capacitor struct {
	name string
	p, m int
	C    float64

	// Integrator state (set between steps by SolveTran).
	active bool
	geq    float64 // companion conductance
	ieq    float64 // companion history current (flows p → m)
}

// AddCapacitor connects a capacitor of the given farads between a and b.
func (c *Circuit) AddCapacitor(name, a, b string, farads float64) *Capacitor {
	if farads <= 0 {
		panic(fmt.Sprintf("spice: capacitor %q with non-positive capacitance", name))
	}
	cap := &Capacitor{name: name, p: c.Node(a), m: c.Node(b), C: farads}
	c.add(cap)
	c.capacitors = append(c.capacitors, cap)
	return cap
}

// Name returns the device name.
func (c *Capacitor) Name() string { return c.name }

// Stamp implements Device. In DC mode the capacitor contributes nothing
// (open circuit); in transient mode it stamps its companion model.
func (c *Capacitor) Stamp(x []float64, st *stampTarget) {
	if c.active {
		stampConductance(x, st, c.p, c.m, c.geq, c.ieq)
	}
}

// Integration selects the transient integration method.
type Integration int

// Supported integration methods.
const (
	// BackwardEuler is L-stable and robust (default).
	BackwardEuler Integration = iota
	// Trapezoidal is second-order accurate (but can ring on stiff
	// discontinuities).
	Trapezoidal
)

// TranOptions configures a transient run.
type TranOptions struct {
	// Stop is the end time in seconds (required).
	Stop float64
	// Step is the fixed time step in seconds (required).
	Step float64
	// Method selects the integration formula.
	Method Integration
	// DC tunes the per-step Newton solves; InitialGuess/Warm seed the
	// operating point at t = 0.
	DC *DCOptions
	// InitialConditions force node voltages at t = 0 (".ic"): the
	// circuit starts from a DC solve with these nodes pinned, then
	// releases them.
	InitialConditions map[string]float64
	// CoarseStep/CoarseUntil enable a two-rate (adaptive) schedule: when
	// both are positive and CoarseStep > Step, the integrator walks from
	// t = 0 to (approximately) CoarseUntil with CoarseStep, then
	// finishes with Step. The intended use is a known-quiescent lead-in
	// — e.g. an SRAM access transient before the wordline edge — where
	// nothing moves and fine resolution is wasted. The coarse segment
	// rounds to whole coarse steps, so set CoarseUntil at or before the
	// first waveform breakpoint.
	CoarseStep  float64
	CoarseUntil float64
}

// TranPoint is the solution at one time point.
type TranPoint struct {
	T  float64
	OP *OperatingPoint
}

// SolveTran runs a fixed-step transient analysis, calling fn after every
// accepted step (including t = 0). fn returning false stops early
// without error. Sources with a Waveform follow it; others hold their DC
// value.
func (c *Circuit) SolveTran(opts TranOptions, fn func(TranPoint) bool) error {
	if opts.Stop <= 0 || opts.Step <= 0 {
		return errors.New("spice: transient needs positive Stop and Step")
	}
	if opts.Step > opts.Stop {
		return errors.New("spice: transient step exceeds stop time")
	}

	// t = 0 operating point, with initial conditions enforced by
	// temporary voltage sources' worth of stiff conductances (pinning
	// via large gmin is fragile; instead solve with the guess and pin
	// capacitor history directly).
	dc := opts.DC.defaults()
	// Closed via defer so an early-exiting callback (fn returning false)
	// cannot leave the trace with an open span.
	span := dc.Telemetry.StartSpan("spice.tran")
	defer span.End()
	for _, src := range c.vsources {
		if src.Waveform != nil {
			src.E = src.Waveform(0)
		}
	}
	var op *OperatingPoint
	var err error
	if len(opts.InitialConditions) > 0 {
		op, err = c.solveWithPinnedNodes(&dc, opts.InitialConditions)
	} else {
		op, err = c.SolveDC(&dc)
	}
	if err != nil {
		return fmt.Errorf("spice: transient t=0 solve: %w", err)
	}
	if !fn(TranPoint{T: 0, OP: op}) {
		return nil
	}

	// Prime capacitor history with the t = 0 voltages and currents.
	type capState struct {
		v float64 // voltage at previous accepted step
		i float64 // current at previous accepted step (for trapezoidal)
	}
	states := make([]capState, len(c.capacitors))
	for k, cap := range c.capacitors {
		states[k].v = voltageAt(op.x, cap.p) - voltageAt(op.x, cap.m)
		states[k].i = 0 // DC: no capacitor current
	}
	defer func() {
		for _, cap := range c.capacitors {
			cap.active = false
		}
	}()

	// The step schedule: one fixed-step segment by default; a coarse
	// lead-in segment followed by the fine segment when the two-rate
	// options are set. Companion conductances are rebuilt per step from
	// the segment's step size, so a rate change needs no special
	// handling beyond the history already kept in states.
	type segment struct {
		t0    float64 // segment start time
		h     float64 // step size
		steps int
	}
	segs := []segment{{t0: 0, h: opts.Step, steps: int(opts.Stop/opts.Step + 0.5)}}
	if opts.CoarseStep > opts.Step && opts.CoarseUntil > 0 && opts.CoarseUntil < opts.Stop {
		coarse := int(opts.CoarseUntil / opts.CoarseStep)
		if coarse >= 1 {
			t1 := float64(coarse) * opts.CoarseStep
			fine := int((opts.Stop-t1)/opts.Step + 0.5)
			segs = []segment{
				{t0: 0, h: opts.CoarseStep, steps: coarse},
				{t0: t1, h: opts.Step, steps: fine},
			}
		}
	}

	first := true
	for _, seg := range segs {
		h := seg.h
		for n := 1; n <= seg.steps; n++ {
			t := seg.t0 + float64(n)*h
			for _, src := range c.vsources {
				if src.Waveform != nil {
					src.E = src.Waveform(t)
				}
			}
			// The DC solution carries no capacitor-current history, so the
			// first step always uses backward Euler (which needs none);
			// trapezoidal integration takes over once a consistent branch
			// current exists. This is the standard breakpoint treatment.
			method := opts.Method
			if first {
				method = BackwardEuler
			}
			for k, cap := range c.capacitors {
				cap.active = true
				switch method {
				case Trapezoidal:
					cap.geq = 2 * cap.C / h
					cap.ieq = cap.geq*states[k].v + states[k].i
				default: // backward Euler
					cap.geq = cap.C / h
					cap.ieq = cap.geq * states[k].v
				}
			}
			local := dc
			local.Warm = op
			next, err := c.SolveDC(&local)
			if err != nil {
				return fmt.Errorf("spice: transient step at t=%.3g: %w", t, err)
			}
			for k, cap := range c.capacitors {
				v := voltageAt(next.x, cap.p) - voltageAt(next.x, cap.m)
				states[k].i = cap.geq*v - cap.ieq
				states[k].v = v
			}
			op = next
			first = false
			if !fn(TranPoint{T: t, OP: op}) {
				return nil
			}
		}
	}
	return nil
}

// solveWithPinnedNodes computes a DC solution with the given nodes forced
// to fixed voltages through temporary ideal sources, then removes the
// pins. The returned operating point keeps the pinned values at the
// pinned nodes (the release happens on the first transient step).
func (c *Circuit) solveWithPinnedNodes(dc *DCOptions, pins map[string]float64) (*OperatingPoint, error) {
	// Pin via a huge conductance to the target voltage: equivalent to a
	// Norton source, avoids mutating the source list.
	var ps []nodePin
	for name, v := range pins {
		idx, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("spice: initial condition for unknown node %q", name)
		}
		if idx >= 0 {
			ps = append(ps, nodePin{idx: idx, v: v})
		}
	}
	// The pin device is appended outside c.add, so the cached solve plan
	// must be invalidated by hand — both for the pinned solve (the plan's
	// active-device list must include the pins) and after removal (it
	// must not keep stamping them).
	pinDev := &pinStamp{pins: ps, g: 1e6}
	c.devices = append(c.devices, pinDev)
	c.plan = nil
	defer func() {
		c.devices = c.devices[:len(c.devices)-1]
		c.plan = nil
	}()

	local := *dc
	if local.InitialGuess == nil {
		local.InitialGuess = map[string]float64{}
	}
	for name, v := range pins {
		local.InitialGuess[name] = v
	}
	return c.SolveDC(&local)
}

// nodePin forces one node toward a voltage during initial-condition
// solves.
type nodePin struct {
	idx int
	v   float64
}

// pinStamp is the internal device used by initial-condition pinning.
type pinStamp struct {
	pins []nodePin
	g    float64
}

// Name implements Device.
func (p *pinStamp) Name() string { return "__ic_pins__" }

// Stamp implements Device.
func (p *pinStamp) Stamp(x []float64, st *stampTarget) {
	for _, pin := range p.pins {
		st.addF(pin.idx, p.g*(x[pin.idx]-pin.v))
		st.addJ(pin.idx, pin.idx, p.g)
	}
}
