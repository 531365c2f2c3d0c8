package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo fingerprints the machine a result was measured on. Absolute
// timings compare only between equal fingerprints; across hosts, compare
// ratios to CalibrationNS.
type hostInfo struct {
	CPUModel      string  `json:"cpu_model"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	CalibrationNS float64 `json:"calibration_ns"`
}

func fingerprint() hostInfo {
	return hostInfo{
		CPUModel:      cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		CalibrationNS: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source revision under test: the checkout's git HEAD
// when it is a git work tree, otherwise "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink float64

// calibrate times a fixed floating-point loop that touches none of the
// repository's code — the exp/log mix of a smooth device model — and
// returns the median nanoseconds per iteration over several trials. It
// moves only with the host, so dividing a timing by it gives a number
// that compares across machines.
func calibrate() float64 {
	const iters = 200000
	trials := make([]float64, 7)
	for t := range trials {
		x := 0.25
		start := time.Now()
		for i := 0; i < iters; i++ {
			u := x*3 - 1
			x = 0.5*math.Log1p(math.Exp(u)) + 1e-9*float64(i&7)
		}
		trials[t] = float64(time.Since(start).Nanoseconds()) / iters
		calibrationSink += x
	}
	return median(trials)
}

// peakRSSMB reports the process's peak resident set size in MiB (VmHWM
// from /proc/self/status); 0 where the kernel does not expose it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
