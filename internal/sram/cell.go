// Package sram models the paper's test vehicle: a 6-T SRAM cell whose
// stability metrics (read noise margin, write noise margin, read current)
// are extracted with transistor-level DC simulation (package spice).
//
// Transistor naming follows the paper's Fig. 5 usage:
//
//	M1: pull-down (driver) NMOS on the Q side      (gate = QB)
//	M2: pull-down (driver) NMOS on the QB side     (gate = Q)
//	M3: access NMOS between BL and Q               (gate = WL)
//	M4: access NMOS between BLB and QB             (gate = WL)
//	M5: pull-up (load) PMOS on the Q side          (gate = QB)
//	M6: pull-up (load) PMOS on the QB side         (gate = Q)
//
// so that the paper's critical pairs hold: RNM is dominated by
// {ΔVth1, ΔVth3}, WNM by {ΔVth3, ΔVth5}, and the read current is the
// current through M3 (in series with M1) when WL = BL = BLB = VDD.
//
// The variation space is the paper's: independent standard Normal
// coordinates x, mapped to per-transistor threshold mismatches
// ΔVth_i = SigmaVth·x_i (eq. 1 after PCA whitening).
package sram

import (
	"fmt"

	"repro/internal/spice"
	"repro/internal/telemetry"
)

// Transistor indices into mismatch vectors.
const (
	M1 = iota // driver, Q side
	M2        // driver, QB side
	M3        // access, BL–Q
	M4        // access, BLB–QB
	M5        // load, Q side
	M6        // load, QB side
	NumTransistors
)

// Cell holds the design parameters of a 6-T cell.
type Cell struct {
	// VDD is the supply voltage in volts.
	VDD float64
	// Driver, Access are the NMOS model cards; Load is the PMOS card.
	Driver, Access *spice.MOSModel
	Load           *spice.MOSModel
	// SigmaVth is the 1σ local threshold mismatch in volts; normalized
	// variation coordinates are multiplied by it.
	SigmaVth float64
	// Grid is the number of points per transfer-curve sweep used in
	// noise-margin extraction (default 41).
	Grid int
	// Telemetry, when non-nil, is threaded into every DC/transient solve
	// the cell performs (per-solve Newton iterations, fallback counts,
	// solve latencies in the "spice" scope). Purely observational.
	Telemetry *telemetry.Registry
}

// Default90nm returns the cell used throughout the experiments: a
// 90 nm-class design (VDD 1.0 V, minimum-length devices, cell ratio ≈ 1.9,
// pull-up ratio ≈ 0.6) with σ(ΔVth) = 30 mV.
func Default90nm() *Cell {
	return &Cell{
		VDD: 1.0,
		Driver: &spice.MOSModel{
			Type: spice.NMOS, VT0: 0.32, KP: 300e-6, W: 240e-9, L: 100e-9,
			Lambda: 0.10, N: 1.30,
		},
		Access: &spice.MOSModel{
			Type: spice.NMOS, VT0: 0.35, KP: 300e-6, W: 130e-9, L: 100e-9,
			Lambda: 0.10, N: 1.30,
		},
		Load: &spice.MOSModel{
			Type: spice.PMOS, VT0: 0.33, KP: 80e-6, W: 120e-9, L: 100e-9,
			Lambda: 0.12, N: 1.35,
		},
		SigmaVth: 0.030,
		Grid:     41,
	}
}

func (c *Cell) grid() int {
	if c.Grid >= 8 {
		return c.Grid
	}
	return 41
}

// BiasConfig selects the cell's terminal biasing.
type BiasConfig int

// Cell bias configurations.
const (
	// HoldConfig: WL low, bitlines precharged.
	HoldConfig BiasConfig = iota
	// ReadConfig: WL high, both bitlines precharged high.
	ReadConfig
	// WriteConfig: WL high, BL driven low, BLB high (writing 0 into Q).
	WriteConfig
)

func (b BiasConfig) String() string {
	switch b {
	case HoldConfig:
		return "hold"
	case ReadConfig:
		return "read"
	case WriteConfig:
		return "write"
	default:
		return fmt.Sprintf("BiasConfig(%d)", int(b))
	}
}

// build assembles the full 6-T netlist in the given configuration with the
// given per-transistor ΔVth (volts). It returns the circuit and the six
// transistor instances indexed M1..M6.
func (c *Cell) build(cfg BiasConfig, dvth [NumTransistors]float64) (*spice.Circuit, [NumTransistors]*spice.MOSFET) {
	ckt := spice.NewCircuit()
	ckt.AddVSource("vdd", "vdd", "0", c.VDD)
	wl, bl, blb := 0.0, c.VDD, c.VDD
	switch cfg {
	case ReadConfig:
		wl = c.VDD
	case WriteConfig:
		wl, bl = c.VDD, 0
	}
	ckt.AddVSource("vwl", "wl", "0", wl)
	ckt.AddVSource("vbl", "bl", "0", bl)
	ckt.AddVSource("vblb", "blb", "0", blb)

	var ms [NumTransistors]*spice.MOSFET
	ms[M1] = ckt.AddMOSFET("m1", "q", "qb", "0", "0", c.Driver)
	ms[M2] = ckt.AddMOSFET("m2", "qb", "q", "0", "0", c.Driver)
	ms[M3] = ckt.AddMOSFET("m3", "bl", "wl", "q", "0", c.Access)
	ms[M4] = ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", c.Access)
	ms[M5] = ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", c.Load)
	ms[M6] = ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", c.Load)
	for i := range ms {
		ms[i].DeltaVth = dvth[i]
	}
	return ckt, ms
}

// transferCurveQtoQB sweeps a forcing source on Q and records QB,
// producing the inverter-B transfer curve g1 in the given configuration.
// transferCurveQBtoQ mirrors it for g2.
func (c *Cell) transferCurveQtoQB(cfg BiasConfig, dvth [NumTransistors]float64) (*curve, error) {
	return c.transferCurve(cfg, dvth, "q", "qb")
}

func (c *Cell) transferCurveQBtoQ(cfg BiasConfig, dvth [NumTransistors]float64) (*curve, error) {
	return c.transferCurve(cfg, dvth, "qb", "q")
}

func (c *Cell) transferCurve(cfg BiasConfig, dvth [NumTransistors]float64, forced, measured string) (*curve, error) {
	ckt, _ := c.build(cfg, dvth)
	ckt.AddVSource("vforce", forced, "0", 0)
	n := c.grid()
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	// Seed the measured node opposite to the forced node's start so the
	// first solve lands on the inverter's natural output.
	opts := &spice.DCOptions{InitialGuess: map[string]float64{measured: c.VDD}, Telemetry: c.Telemetry}
	err := ckt.Sweep("vforce", 0, c.VDD, n, opts, func(v float64, op *spice.OperatingPoint) bool {
		xs = append(xs, v)
		ys = append(ys, op.Voltage(measured))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("sram: %s transfer curve (%s→%s): %w", cfg, forced, measured, err)
	}
	return &curve{xs: xs, ys: ys}, nil
}

// WriteTripFloor is the lowest artificial bitline voltage probed by
// WriteTrip. Letting the bisection continue below 0 V keeps the write
// margin continuous (and hence searchable) past the physical write-fail
// boundary. The floor is one of the search's two endpoint probes, which
// run the full solve ladder: a cell no strategy can solve there is an
// error, not a margin.
const WriteTripFloor = -0.6

// writeProbeMaxIter caps the single plain-Newton attempt of each
// interior write-trip probe. A probe still unconverged after it counts
// as flipped, as a failed full solve always did: near the trip point
// the state-1 solution is marginal or gone, and of the probes that ran
// past 30 iterations almost all ended flipped under the full ladder
// anyway (DESIGN.md §12).
const writeProbeMaxIter = 30

// writeTripBisections is the number of interior probes after the two
// endpoints: 14 halvings of the 1.6 V bracket resolve the trip voltage
// to ~0.1 mV.
const writeTripBisections = 14

// writeProbe reports whether the cell flips at bitline voltage bl.
// endpoint marks the two bracket probes (BL = VDD and BL =
// WriteTripFloor), which must solve with the full ladder; interior
// probes may decide non-convergence cheaply.
type writeProbe func(bl float64, endpoint bool) (flipped bool, err error)

// newWriteProbe is the write-trip probe on a write circuit whose WL is
// high and whose bitline source is vbl: a cold DC solve seeded in the
// state-1 basin, flipped when V(q) falls below VDD/2. Interior probes
// run one plain-Newton attempt capped at writeProbeMaxIter.
func (c *Cell) newWriteProbe(ckt *spice.Circuit, vbl *spice.VSource) writeProbe {
	full := spice.DCOptions{
		InitialGuess: map[string]float64{"q": c.VDD, "qb": 0},
		Telemetry:    c.Telemetry,
		// Probes only compare V(q) against the trip threshold.
		NoBranchCurrents: true,
	}
	capped := full
	capped.SingleAttempt = true
	capped.MaxIter = writeProbeMaxIter
	return func(bl float64, endpoint bool) (bool, error) {
		vbl.E = bl
		opts := &capped
		if endpoint {
			opts = &full
		}
		op, err := ckt.SolveDC(opts)
		if err != nil {
			return false, fmt.Errorf("sram: write-trip solve at BL=%.3f: %w", bl, err)
		}
		return op.Voltage("q") < 0.5*c.VDD, nil
	}
}

// writeTripSearch is the write-trip bisection behind both WriteTrip and
// the WNM metric. It probes the endpoints BL = vdd and BL =
// WriteTripFloor, whose errors it returns, then bisects the bracket with
// writeTripBisections interior probes. An interior probe that fails
// counts as flipped: non-convergence this close to the trip bifurcation
// means the state-1 solution is marginal, and classifying the point as
// flipped moves the trip estimate by at most the current bisection
// interval.
func writeTripSearch(vdd float64, flipped writeProbe) (float64, error) {
	lo, hi := WriteTripFloor, vdd
	// The cell must hold its state with BL at VDD (otherwise it is
	// read-unstable, which the write metric treats as flipping at VDD).
	if f, err := flipped(hi, true); err != nil {
		return 0, err
	} else if f {
		return hi, nil
	}
	if f, err := flipped(lo, true); err != nil {
		return 0, err
	} else if !f {
		return lo, nil // saturated: cannot write even at the floor
	}
	for i := 0; i < writeTripBisections; i++ {
		mid := 0.5 * (lo + hi)
		f, err := flipped(mid, false)
		if f || err != nil {
			lo = mid // flips at mid: trip voltage is at or above mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// WriteTrip returns the bitline write-trip voltage: the highest BL voltage
// at which the cell storing a 1 at Q flips when the word line is asserted
// (writing a 0 through M3 against load M5). A healthy cell flips with BL
// well above 0 V; a write-failing cell does not flip even at BL = 0, in
// which case the returned value is negative (down to WriteTripFloor, where
// it saturates). Each probe is one cold DC solve seeded in the state-1
// basin. The two endpoint probes use the full solve ladder; each
// interior bisection probe is one plain-Newton attempt capped at 30
// iterations, and an attempt that does not converge counts as flipped.
// The WNM metric runs the same search, so the two agree bit for bit.
func (c *Cell) WriteTrip(dvth [NumTransistors]float64) (float64, error) {
	ckt, _ := c.build(ReadConfig, dvth) // WL high, both bitlines start at VDD
	vbl, err := ckt.VSourceByName("vbl")
	if err != nil {
		return 0, err
	}
	return writeTripSearch(c.VDD, c.newWriteProbe(ckt, vbl))
}

// ReadCurrent solves the read operating point with the cell holding a 0 at
// Q and returns the magnitude of the current through access transistor M3
// (the series M3–M1 read path), in amperes.
func (c *Cell) ReadCurrent(dvth [NumTransistors]float64) (float64, error) {
	ckt, ms := c.build(ReadConfig, dvth)
	op, err := ckt.SolveDC(&spice.DCOptions{
		InitialGuess: map[string]float64{"q": 0.05, "qb": c.VDD},
		Telemetry:    c.Telemetry,
	})
	if err != nil {
		return 0, fmt.Errorf("sram: read-current operating point: %w", err)
	}
	i := ms[M3].Current(op)
	if i < 0 {
		i = -i
	}
	return i, nil
}

// RetentionVoltage returns the data-retention voltage (DRV): the lowest
// supply at which the cell still holds a stored 0 in the hold
// configuration, found by bisection on VDD. Cells with a DRV above the
// standby supply lose data in low-power retention mode; the margin
// convention is "fail when DRV > spec". The search floor is 50 mV; cells
// retaining below it return the floor.
func (c *Cell) RetentionVoltage(dvth [NumTransistors]float64) (float64, error) {
	ckt, _ := c.build(HoldConfig, dvth)
	vdd, err := ckt.VSourceByName("vdd")
	if err != nil {
		return 0, err
	}
	holds := func(supply float64) (bool, error) {
		vdd.E = supply
		op, err := ckt.SolveDC(&spice.DCOptions{
			InitialGuess: map[string]float64{"q": 0, "qb": supply},
			Telemetry:    c.Telemetry,
		})
		if err != nil {
			return false, err
		}
		// The state survives if QB stays in the upper half and Q low.
		return op.Voltage("qb") > 0.5*supply && op.Voltage("q") < 0.5*supply, nil
	}
	const floor = 0.05
	lo, hi := floor, c.VDD
	if ok, err := holds(hi); err != nil {
		return 0, err
	} else if !ok {
		return hi, nil // cannot retain even at full supply
	}
	if ok, err := holds(lo); err == nil && ok {
		return lo, nil // retains all the way down to the floor
	}
	for i := 0; i < 12; i++ {
		mid := 0.5 * (lo + hi)
		ok, err := holds(mid)
		if err != nil {
			// Non-convergence this deep in the supply sweep counts as
			// data loss at mid.
			ok = false
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// mirror swaps the A-side and B-side mismatches: the cell is
// topologically symmetric, so the B-side read current equals the A-side
// read current of the mirrored cell.
func mirror(dvth [NumTransistors]float64) [NumTransistors]float64 {
	return [NumTransistors]float64{
		M1: dvth[M2], M2: dvth[M1],
		M3: dvth[M4], M4: dvth[M3],
		M5: dvth[M6], M6: dvth[M5],
	}
}

// DualReadCurrent returns the worse of the two read currents: reading a 0
// (current through M3 into the Q side) and reading a 1 (current through
// M4 into the QB side, computed on the mirrored cell). A cell must read
// both data values at speed, so the access-time failure criterion is
// min(I_read0, I_read1) < Ith. Over the access-transistor pair
// (ΔVth3, ΔVth4) this produces a symmetric, single-connected but strongly
// non-convex failure region — two orthogonal half-plane lobes joined at
// the far corner — which is this library's stand-in for the irregular
// §V-B region of the paper (see DESIGN.md).
func (c *Cell) DualReadCurrent(dvth [NumTransistors]float64) (float64, error) {
	ia, err := c.ReadCurrent(dvth)
	if err != nil {
		return 0, err
	}
	ib, err := c.ReadCurrent(mirror(dvth))
	if err != nil {
		return 0, err
	}
	if ib < ia {
		return ib, nil
	}
	return ia, nil
}

// StaticNodeVoltages solves the DC state of the cell in the given
// configuration starting from a stored 0 (Q low) and returns (Q, QB).
func (c *Cell) StaticNodeVoltages(cfg BiasConfig, dvth [NumTransistors]float64) (q, qb float64, err error) {
	ckt, _ := c.build(cfg, dvth)
	op, err := ckt.SolveDC(&spice.DCOptions{
		InitialGuess: map[string]float64{"q": 0, "qb": c.VDD},
		Telemetry:    c.Telemetry,
	})
	if err != nil {
		return 0, 0, err
	}
	return op.Voltage("q"), op.Voltage("qb"), nil
}
