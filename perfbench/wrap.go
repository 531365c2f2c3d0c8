package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mc"
	"repro/internal/telemetry"
)

// timedMetric wraps a workload metric and times every call into it from
// outside the program: how many samples were evaluated, in how many
// calls, and when each call was busy. It forwards ValueBatch and
// SetTelemetry, so the estimators take the same batched path and thread
// the same telemetry registry as they do through the bare metric — a
// wrapped run computes the same bytes as an unwrapped one.
//
// With extra set, every evaluated sample also spins for that long: the
// injected per-evaluation slowdown of the sensitivity self-check.
type timedMetric struct {
	inner repro.Metric
	extra time.Duration
	// epoch anchors the recorded call offsets.
	epoch time.Time

	evals, calls atomic.Int64

	mu    sync.Mutex
	spans []callSpan // guarded by mu
}

// callSpan is one call into the metric, as offsets from epoch.
type callSpan struct{ start, end time.Duration }

func newTimedMetric(inner repro.Metric, extra time.Duration) *timedMetric {
	return &timedMetric{inner: inner, extra: extra, epoch: time.Now()}
}

func (t *timedMetric) Dim() int { return t.inner.Dim() }

func (t *timedMetric) Value(x []float64) float64 {
	start := time.Since(t.epoch)
	v := t.inner.Value(x)
	t.finish(start, 1)
	return v
}

func (t *timedMetric) ValueBatch(xs [][]float64, out []float64) {
	start := time.Since(t.epoch)
	if b, ok := t.inner.(mc.BatchMetric); ok {
		b.ValueBatch(xs, out)
	} else {
		for i, x := range xs {
			out[i] = t.inner.Value(x)
		}
	}
	t.finish(start, len(xs))
}

// SetTelemetry forwards the run's registry to the wrapped metric, so the
// SPICE solver counters fill exactly as they would without the wrapper.
func (t *timedMetric) SetTelemetry(reg *telemetry.Registry) {
	if tm, ok := t.inner.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
		tm.SetTelemetry(reg)
	}
}

func (t *timedMetric) finish(start time.Duration, n int) {
	if t.extra > 0 {
		spin(t.extra * time.Duration(n))
	}
	end := time.Since(t.epoch)
	t.evals.Add(int64(n))
	t.calls.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, callSpan{start, end})
	t.mu.Unlock()
}

// busy sums the durations of calls that started inside [from, to).
func (t *timedMetric) busy(from, to time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.start >= from && s.start < to {
			d += s.end - s.start
		}
	}
	return d
}

// since is the current offset from the wrapper's epoch.
func (t *timedMetric) since() time.Duration { return time.Since(t.epoch) }

// spin burns CPU for d without yielding the processor.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}
