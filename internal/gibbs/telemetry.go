package gibbs

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Chain telemetry lives in the "gibbs" scope:
//
//	updates_total                  coordinate updates attempted
//	resampled_total                updates that drew from a failure interval
//	recovered_total                resampled updates that needed the
//	                               coarse recovery scan (chain drifted out)
//	kept_total                     updates where no interval was found
//	coord_<name>_resampled_total   per-coordinate resample counts
//	probes_per_update              simulations per interval search
//	chain_ess / chain_acceptance   gauges refreshed at chain end
//
// plus one "gibbs.chain" event per finished chain carrying the mixing
// diagnostics (ESS, worst integrated autocorrelation time, acceptance,
// per-coordinate resample counts).

var probeBuckets = telemetry.ExpBuckets(1, 2, 8) // 1 .. 128 sims/update

// chainTelemetry accumulates one chain's interval-search statistics.
// The live counters feed /metrics; the plain-int tallies (update runs
// on the chain's goroutine, after each interval search has joined) feed
// the end-of-chain event. A nil *chainTelemetry is fully inert.
type chainTelemetry struct {
	reg        *telemetry.Registry
	coordNames []string

	updates, resampled, recovered, kept *telemetry.Counter
	perCoord                            []*telemetry.Counter
	probes                              *telemetry.Histogram

	nUpdates, nResampled, nRecovered, nKept int
	byCoord                                 []int64

	// Stage-1 progress: the chain produces one sample per coordinate
	// update, so nUpdates doubles as the samples-done count against the
	// target K. Every progressStride updates a "progress" event goes
	// out with the measured update throughput and the ETA to K, and the
	// shared "progress" scope gauges are refreshed (the same gauges the
	// second stage writes — the job status API reads whichever stage is
	// live).
	target  int
	start   time.Time
	nProbes int64
	gRate   *telemetry.Gauge
	gETA    *telemetry.Gauge
	gN      *telemetry.Gauge
	gTotal  *telemetry.Gauge
}

// progressStride throttles stage-1 progress events: one per this many
// coordinate updates (a K=1000 chain emits ~31).
const progressStride = 32

// cartesianCoordNames labels Algorithm 1's coordinates x0..x{M-1};
// sphericalCoordNames labels Algorithm 2's redundant set r, a0..a{M-1}.
func cartesianCoordNames(dim int) []string {
	names := make([]string, dim)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	return names
}

func sphericalCoordNames(dim int) []string {
	names := make([]string, dim+1)
	names[0] = "r"
	for i := 0; i < dim; i++ {
		names[i+1] = fmt.Sprintf("a%d", i)
	}
	return names
}

func newChainTelemetry(reg *telemetry.Registry, coordNames []string, target int) *chainTelemetry {
	if reg == nil {
		return nil
	}
	s := reg.Scope(wire.ScopeGibbs)
	prog := reg.Scope(wire.ScopeProgress)
	ct := &chainTelemetry{
		reg:        reg,
		coordNames: coordNames,
		updates:    s.Counter("updates_total"),
		resampled:  s.Counter("resampled_total"),
		recovered:  s.Counter("recovered_total"),
		kept:       s.Counter("kept_total"),
		probes:     s.Histogram("probes_per_update", probeBuckets),
		byCoord:    make([]int64, len(coordNames)),
		target:     target,
		start:      time.Now(),
		gRate:      prog.Gauge("sims_per_sec"),
		gETA:       prog.Gauge("eta_seconds"),
		gN:         prog.Gauge("n"),
		gTotal:     prog.Gauge("total"),
	}
	for _, n := range coordNames {
		ct.perCoord = append(ct.perCoord, s.Counter("coord_"+n+"_resampled_total"))
	}
	ct.gTotal.Set(float64(target))
	return ct
}

// update records one coordinate update: which coordinate, how the
// interval search ended, and how many simulations it probed.
func (t *chainTelemetry) update(coord int, st intervalStatus, probes int) {
	if t == nil {
		return
	}
	t.nUpdates++
	t.updates.Inc()
	t.probes.Observe(float64(probes))
	switch st {
	case intervalNone:
		t.nKept++
		t.kept.Inc()
	default:
		t.nResampled++
		t.resampled.Inc()
		t.perCoord[coord].Inc()
		t.byCoord[coord]++
		if st == intervalRecovered {
			t.nRecovered++
			t.recovered.Inc()
		}
	}
	t.nProbes += int64(probes)
	if t.nUpdates%progressStride == 0 {
		t.progress()
	}
}

// progress publishes a throttled stage-1 snapshot: the chain's position
// against its sample target, the measured simulation throughput (the
// interval search runs several simulations per update, so sims/sec is
// tallied from probe counts, not updates), and the finite ETA to the
// target. Reads only the wall clock and tallies — the chain's random
// stream is untouched.
func (t *chainTelemetry) progress() {
	elapsed := time.Since(t.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(t.nProbes) / elapsed
	}
	eta := 0.0
	if t.nUpdates > 0 && t.target > t.nUpdates {
		perUpdate := elapsed / float64(t.nUpdates)
		eta = float64(t.target-t.nUpdates) * perUpdate
	}
	t.gN.Set(float64(t.nUpdates))
	t.gRate.Set(rate)
	t.gETA.Set(eta)
	t.reg.Emit(wire.EvProgress, map[string]any{
		"stage": "stage1", "n": t.nUpdates, "total": t.target,
		"resampled": t.nResampled, "sims": t.nProbes,
		"sims_per_sec": rate, "eta_seconds": eta,
	})
}

// done computes the mixing diagnostics of the finished chain and emits
// the "gibbs.chain" event (also refreshing the chain_ess and
// chain_acceptance gauges).
func (t *chainTelemetry) done(coord Coord, samples [][]float64) {
	if t == nil {
		return
	}
	acceptance := 0.0
	if t.nUpdates > 0 {
		acceptance = float64(t.nResampled) / float64(t.nUpdates)
	}
	fields := map[string]any{
		"coord":              coord.String(),
		"k":                  len(samples),
		"updates":            t.nUpdates,
		"resampled":          t.nResampled,
		"recovered":          t.nRecovered,
		"kept":               t.nKept,
		"acceptance":         acceptance,
		"coords":             t.coordNames,
		"resampled_by_coord": t.byCoord,
	}
	t.gETA.Set(0)
	s := t.reg.Scope(wire.ScopeGibbs)
	s.Gauge("chain_acceptance").Set(acceptance)
	if ess, err := EffectiveSampleSize(samples); err == nil {
		fields["ess"] = ess
		fields["tau_max"] = float64(len(samples)) / ess
		s.Gauge("chain_ess").Set(ess)
	}
	t.reg.Emit(wire.EvGibbsChain, fields)
}
