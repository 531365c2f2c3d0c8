package spice

import "repro/internal/linalg"

// This file holds the solver's cached symbolic analysis. Profiling the
// SRAM workloads showed most Newton time going into factoring Jacobian
// rows that are not really unknowns: every supply/wordline/bitline source
// in the cell has one terminal grounded, so its node voltage is known
// before the solve starts and its branch current is recoverable from KCL
// afterwards. The plan identifies those pinned nodes once per topology;
// the Newton loop then factors only the genuinely free unknowns (2 of 10
// for the read cell, 1 of 11 for a forced transfer-curve point).
//
// Newton keeps no full-size Jacobian or residual. The plan maps each
// full-MNA unknown to its place in the reduced system, and devices stamp
// straight into the reduced residual and Jacobian through that map
// (stampTarget), dropping every contribution to a pinned row or column.
// Branch recovery stamps through a second map that keeps only the
// pinned rows.
//
// The plan and workspace are cached on the Circuit and rebuilt lazily
// whenever a device or node is added. Solving a Circuit was always a
// single-goroutine affair (sweeps mutate source values in place); the
// cache relies on that existing contract.

// pinInfo records one eliminated voltage source: a source with exactly
// one grounded terminal pins its other node to sign*E, and its branch
// current drops out of the unknown set (recovered after convergence).
type pinInfo struct {
	vs   *VSource
	node int     // full-system index of the pinned node
	sign float64 // +1 when node is the plus terminal, -1 when minus
}

// solvePlan is the symbolic structure of one circuit topology: which
// unknowns the Newton iteration actually solves for.
type solvePlan struct {
	// free lists the full-system indices of the reduced unknowns: free
	// nodes first, then the branch currents of sources that could not be
	// eliminated. freeNodes is the length of the node prefix.
	free      []int
	freeNodes int
	pins      []pinInfo
	// reduced maps a full-system index to its position in free, or -1
	// for a pinned node or an eliminated branch current. pinned maps the
	// node of pins[k] to k and everything else to -1.
	reduced []int
	pinned  []int
	// active lists the devices that stamp at least one free row. The
	// others only write rows outside the reduced system (e.g. a MOSFET
	// whose drain and source both sit on pinned nodes), so the Newton
	// loop skips them without changing a single bit of the iteration; a
	// forced transfer-curve point needs only half the cell's transistor
	// evaluations this way. Branch recovery still stamps every device.
	active []Device
}

// newtonWorkspace holds the per-circuit numeric scratch space so the
// Newton loop allocates nothing per iteration (or per solve).
type newtonWorkspace struct {
	sys   stampTarget // reduced residual and Jacobian
	neg   []float64   // reduced negated residual
	dx    []float64   // reduced Newton update
	lu    linalg.LU
	recov stampTarget // device currents at the pinned nodes
}

// buildPlan performs the symbolic analysis. A voltage source is
// eliminated when exactly one terminal is grounded and no earlier source
// already claimed its other node; everything else (floating sources,
// second sources on a claimed node, degenerate ground-to-ground sources)
// keeps its branch unknown and inherits the full MNA behavior — in the
// conflicting cases that is a structurally singular system, exactly as
// the unreduced formulation reported.
func (c *Circuit) buildPlan() *solvePlan {
	c.indexBranches()
	nn := c.NumNodes()
	p := &solvePlan{}
	claimed := make([]bool, nn)
	kept := make([]*VSource, 0, len(c.vsources))
	for _, v := range c.vsources {
		var node int
		var sign float64
		switch {
		case v.p >= 0 && v.m < 0:
			node, sign = v.p, 1
		case v.m >= 0 && v.p < 0:
			node, sign = v.m, -1
		default:
			kept = append(kept, v)
			continue
		}
		if claimed[node] {
			kept = append(kept, v)
			continue
		}
		claimed[node] = true
		p.pins = append(p.pins, pinInfo{vs: v, node: node, sign: sign})
	}
	for i := 0; i < nn; i++ {
		if !claimed[i] {
			p.free = append(p.free, i)
		}
	}
	p.freeNodes = len(p.free)
	for _, v := range kept {
		p.free = append(p.free, v.branch)
	}
	p.reduced = indexMap(c.NumUnknowns(), p.free)
	pinNodes := make([]int, len(p.pins))
	for k, pin := range p.pins {
		pinNodes[k] = pin.node
	}
	p.pinned = indexMap(c.NumUnknowns(), pinNodes)
	for _, d := range c.devices {
		if stampsFreeRow(d, p.reduced) {
			p.active = append(p.active, d)
		}
	}
	return p
}

// stampsFreeRow reports whether the device writes any residual row in
// the reduced unknown set. The row sets mirror each Stamp method:
// current-carrying terminals for two-terminal devices and MOSFETs
// (drain/source; the gate and bulk draw no current), plus the branch row
// for sources. Unknown device types are conservatively kept active.
func stampsFreeRow(d Device, reduced []int) bool {
	hit := func(idx int) bool { return idx >= 0 && reduced[idx] >= 0 }
	switch t := d.(type) {
	case *MOSFET:
		return hit(t.d) || hit(t.s)
	case *Resistor:
		return hit(t.p) || hit(t.m)
	case *Capacitor:
		return hit(t.p) || hit(t.m)
	case *ISource:
		return hit(t.p) || hit(t.m)
	case *VSource:
		return hit(t.p) || hit(t.m) || hit(t.branch)
	case *pinStamp:
		for _, pin := range t.pins {
			if hit(pin.idx) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// indexMap returns a length-n map sending idx[k] to k and every other
// index to -1.
func indexMap(n int, idx []int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = -1
	}
	for k, i := range idx {
		m[i] = k
	}
	return m
}

// solverState returns the current plan and a workspace sized for it,
// rebuilding both after any topology change.
func (c *Circuit) solverState() (*solvePlan, *newtonWorkspace) {
	if c.plan == nil {
		c.plan = c.buildPlan()
		c.ws = nil
	}
	if c.ws == nil {
		r := len(c.plan.free)
		np := len(c.plan.pins)
		c.ws = &newtonWorkspace{
			sys: stampTarget{row: c.plan.reduced, f: make([]float64, r), j: linalg.NewMatrix(r, r)},
			neg: make([]float64, r),
			dx:  make([]float64, r),
			recov: stampTarget{row: c.plan.pinned, f: make([]float64, np),
				j: linalg.NewMatrix(np, np)},
		}
	}
	return c.plan, c.ws
}

// stampReduced evaluates the reduced residual and Jacobian at x into
// ws.sys: every active device in netlist order, then the gmin shunts
// that keep the Jacobian nonsingular with off devices. Pinned rows never
// enter the factored system, so only free nodes need shunts.
func (c *Circuit) stampReduced(plan *solvePlan, ws *newtonWorkspace, x []float64, gmin float64) {
	sys := &ws.sys
	for i := range sys.f {
		sys.f[i] = 0
	}
	sys.j.Zero()
	for _, d := range plan.active {
		d.Stamp(x, sys)
	}
	for a := 0; a < plan.freeNodes; a++ {
		sys.f[a] += gmin * x[plan.free[a]]
		sys.j.Add(a, a, gmin)
	}
}

// recoverPinnedBranches computes the branch currents of eliminated
// sources at the converged solution. With the eliminated branch current
// held at zero during stamping, the full-system node residual at a
// pinned node is exactly the device current that the source must supply:
// f[node] + sign*I = 0. One fresh stamp at the final iterate keeps the
// recovered currents consistent with the solution the caller sees.
func (c *Circuit) recoverPinnedBranches(plan *solvePlan, ws *newtonWorkspace, x []float64) {
	if len(plan.pins) == 0 {
		return
	}
	recov := &ws.recov
	for i := range recov.f {
		recov.f[i] = 0
	}
	recov.j.Zero()
	for _, d := range c.devices {
		d.Stamp(x, recov)
	}
	for k, pin := range plan.pins {
		x[pin.vs.branch] = -pin.sign * recov.f[k]
	}
}
