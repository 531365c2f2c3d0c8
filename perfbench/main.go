// Command perfbench is the repository benchmark. It runs one named
// workload through the public APIs of the library and the job service,
// checks every estimate against a frozen reference failure probability,
// and prints its measurements as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload heavy-sims --seed 1 --seconds 50 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// attached. --trace 1 is the separate traced run: it times the calls into
// each layer's public functions from outside and reads the counters the
// program already keeps, and prints the per-layer metrics instead.
// --selfcheck runs the sensitivity self-check (see selfcheck.go).
// perfbench/README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// report accumulates one run: operations attempted and failed, output
// errors, the metrics, and the details printed ahead of the result line.
type report struct {
	attempted, failed int
	// failures lists failed operations (they count against error_rate);
	// wrong lists outputs that make the whole run incorrect.
	failures, wrong []string
	metrics         map[string]metricValue
	detail          map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metricValue{}, detail: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// op records one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) incorrect(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(context.Context, runConfig, *report) error{
	"heavy-sims": runHeavySims,
	"light-sims": runLightSims,
}

func main() {
	workload := flag.String("workload", "", "workload to run: heavy-sims or light-sims")
	seed := flag.Int64("seed", 1, "workload seed; every input of the run derives from it")
	seconds := flag.Float64("seconds", 50, "measured length of the run in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the sensitivity self-check on heavy-sims instead")
	flag.Parse()

	if *selfcheck {
		if err := runSelfCheck(context.Background(), *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	rep := newReport()
	rep.detail["workload"] = *workload
	rep.detail["seed"] = *seed
	rep.detail["traced"] = cfg.traced
	rep.detail["host"] = fingerprint()
	if err := run(context.Background(), cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !cfg.traced {
		rep.set("peak_rss_mb", peakRSSMB(), "MiB")
	}
	// A metric with nothing to measure (every job it would read failed)
	// is no measurement: the run is incorrect, and the value reads 0 so
	// the result line still encodes.
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.incorrect("metric %s has no valid samples", name)
			rep.set(name, 0, m.Unit)
		}
	}
	rep.detail["failures"] = rep.failures
	rep.detail["incorrect"] = rep.wrong

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": rep.detail}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(result{
		Correct:   len(rep.wrong) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
