package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Service stack sizing, as `sramserverd -dist -result-cache 1024` with
// two `sramworkerd -poll 50ms` workers.
const (
	resultCacheSize = 1024
	serviceWorkers  = 2
	serviceConns    = 2
	workerPoll      = 50 * time.Millisecond
)

// stack is the job service, in process, configured as
// `sramserverd -dist -result-cache 1024` with two sramworkerd workers on
// loopback: a jobs.Manager with the default single executor, a
// dist.Coordinator, and a typed client limited to two connections.
type stack struct {
	reg       *telemetry.Registry
	mgr       *jobs.Manager
	coord     *dist.Coordinator
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *client.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startStack starts the stack. workerResolve replaces the workers'
// workload registry (nil keeps repro.WorkloadByName).
func startStack(workerResolve func(string) (repro.Metric, error)) (*stack, error) {
	reg := telemetry.New()
	coord := dist.NewCoordinator(dist.Config{Registry: reg})
	mgr := jobs.NewManager(jobs.Config{
		Registry:    reg,
		EventRing:   256,
		CacheSize:   resultCacheSize,
		Distributor: coord.Run,
	})
	mux := http.NewServeMux()
	mux.Handle("/v1/dist/", coord.Handler())
	mux.Handle("/v1/cluster", coord.Handler())
	mux.Handle("/", jobs.Handler(mgr))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Stop()
		return nil, errors.Join(err, mgr.Drain(context.Background()))
	}
	s := &stack{
		reg: reg, mgr: mgr, coord: coord,
		srv:       &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	s.client = client.New(base, &http.Client{Transport: s.transport})

	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 1; i <= serviceWorkers; i++ {
		// Like sramworkerd: a registry with a 256-event bus and a
		// watchdog on it.
		wreg := telemetry.New()
		wreg.SetBus(telemetry.NewBus(256))
		cfg := dist.WorkerConfig{
			Coordinator: base, ID: fmt.Sprintf("worker-%d", i), Cores: 1,
			Registry: wreg, Resolve: workerResolve, PollInterval: workerPoll,
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			wd := telemetry.StartWatchdog(wreg, telemetry.WatchdogConfig{})
			defer wd.Stop()
			// RunWorker returns ctx's error once the stack closes.
			_ = dist.RunWorker(ctx, cfg)
		}()
	}
	return s, nil
}

// waitWorkers blocks until n workers show in the coordinator's cluster
// summary.
func (s *stack) waitWorkers(ctx context.Context, n int) error {
	for len(s.coord.Cluster().Workers) < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %d workers: %w", n, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// close drains the manager, stops the workers, the HTTP server and the
// coordinator, and waits for every goroutine the stack started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.mgr.BeginDrain()
	err := s.mgr.Drain(ctx)
	s.stopWorkers()
	s.workers.Wait()
	err = errors.Join(err, s.srv.Shutdown(ctx))
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.coord.Stop()
	s.transport.CloseIdleConnections()
	return err
}

// startReady starts a stack and waits until both workers show in
// Coordinator.Cluster().
func startReady(ctx context.Context, workerResolve func(string) (repro.Metric, error)) (*stack, error) {
	s, err := startStack(workerResolve)
	if err != nil {
		return nil, err
	}
	if err := s.waitWorkers(ctx, serviceWorkers); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// scheduled is one job of an open-loop schedule.
type scheduled struct {
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"` // fresh, repeat or dist
	Req  jobs.Request  `json:"request"`
}

// freshRequest is a small local estimate: readcurrent under MNIS or
// dualread under G-S, K in [300, 500], N = 4000.
func freshRequest(rng *rand.Rand, dualread bool) jobs.Request {
	req := jobs.Request{Workload: "readcurrent", Method: string(repro.MNIS), K: 300 + rng.Intn(201), N: 4000, Seed: rng.Int63()}
	if dualread {
		req.Workload, req.Method = "dualread", string(repro.GS)
	}
	return req
}

// distRequest is a distributed readcurrent G-S run with fixed N.
func distRequest(rng *rand.Rand) jobs.Request {
	return jobs.Request{Workload: "readcurrent", Method: string(repro.GS), K: 300, N: 4000, Seed: rng.Int63(), Distribute: true}
}

// mixBlock is the job mix in one block of 20 consecutive arrivals: 60%
// fresh local estimates (4 readcurrent MNIS, 8 dualread G-S), 25%
// repeats and 15% distributed runs, shuffled within the block.
var mixBlock = []string{
	"fresh-readcurrent", "fresh-readcurrent", "fresh-readcurrent", "fresh-readcurrent",
	"fresh-dualread", "fresh-dualread", "fresh-dualread", "fresh-dualread",
	"fresh-dualread", "fresh-dualread", "fresh-dualread", "fresh-dualread",
	"repeat", "repeat", "repeat", "repeat", "repeat",
	"dist", "dist", "dist",
}

// makeSchedule draws whole blocks of jobs over span. Arrival i falls
// uniformly at random in the i-th of n equal slots. Repeats replay a
// request of pool.
func makeSchedule(rng *rand.Rand, blocks int, span time.Duration, pool []jobs.Request) []scheduled {
	n := blocks * len(mixBlock)
	out := make([]scheduled, 0, n)
	for b := 0; b < blocks; b++ {
		block := append([]string(nil), mixBlock...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			at := (float64(len(out)) + rng.Float64()) / float64(n) * span.Seconds()
			sj := scheduled{At: time.Duration(at * float64(time.Second)), Kind: kind}
			switch kind {
			case "repeat":
				sj.Req = pool[rng.Intn(len(pool))]
			case "dist":
				sj.Req = distRequest(rng)
			default:
				sj.Kind = "fresh"
				sj.Req = freshRequest(rng, kind == "fresh-dualread")
			}
			out = append(out, sj)
		}
	}
	return out
}

// jobOutcome is one scheduled job after the run.
type jobOutcome struct {
	sched    scheduled
	sent     time.Time     // when the generator sent it
	submitRT time.Duration // client.Submit round trip
	err      error         // submission error (rejection)
	snap     jobs.Snapshot // final snapshot
	job      *jobs.Job
}

// scheduleRun is the measured part of one service run.
type scheduleRun struct {
	jobs       []jobOutcome
	events     int64 // events seen on the manager bus during the run
	busDropped int64
	leases     int64 // leases granted during the run
	expired    int64
	rejected   float64
	cacheHits  int
}

// runSchedule replays sched against a running stack from one generator
// goroutine, open loop: each job is sent when it is due, whatever the
// state of earlier ones. It then waits for every job to end.
func runSchedule(ctx context.Context, s *stack, sched []scheduled) (*scheduleRun, error) {
	before := s.coord.Cluster()
	sub := s.mgr.Bus().Subscribe(1 << 16) // sized to hold a whole run's events
	var events int64
	counted := make(chan struct{})
	go func() {
		defer close(counted)
		for range sub.Events() {
			events++
		}
	}()
	droppedBefore := s.mgr.Bus().Dropped()

	run := &scheduleRun{jobs: make([]jobOutcome, len(sched))}
	start := time.Now()
	for i, sj := range sched {
		due := start.Add(sj.At)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				sub.Close()
				<-counted
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		o := jobOutcome{sched: sj, sent: time.Now()}
		snap, _, err := s.client.Submit(ctx, sj.Req, "")
		o.submitRT = time.Since(o.sent)
		o.err = err
		if err == nil {
			o.job, o.err = s.mgr.Get(snap.ID)
		}
		run.jobs[i] = o
	}
	for i := range run.jobs {
		o := &run.jobs[i]
		if o.err != nil {
			continue
		}
		select {
		case <-o.job.Done():
		case <-ctx.Done():
			sub.Close()
			<-counted
			return nil, ctx.Err()
		}
		o.snap = o.job.Snapshot()
		if o.snap.Cached {
			run.cacheHits++
		}
	}
	run.busDropped = s.mgr.Bus().Dropped() - droppedBefore
	sub.Close()
	<-counted
	run.events = events
	after := s.coord.Cluster()
	run.leases = after.LeasesGranted - before.LeasesGranted
	run.expired = after.LeasesExpired - before.LeasesExpired
	for _, p := range s.reg.Snapshot() {
		if p.Scope == "jobs" && p.Name == "rejected_total" {
			run.rejected = p.Value
		}
	}
	return run, nil
}

// check records every job as an operation, which fails when the
// workload's reference Pf lies outside the job's widened 99% interval. A
// job that was rejected or lost, or ended in any state but done, makes
// the run incorrect, as does a repeat that is not a cache hit returning
// exactly the result of the run it replays.
func (r *scheduleRun) check(rep *report, originals map[jobs.Request]*jobs.Result) {
	for _, o := range r.jobs {
		req := o.sched.Req
		switch {
		case o.err != nil:
			rep.op(o.err)
			rep.incorrect("%s %s/%s seed %d: %v", o.sched.Kind, req.Workload, req.Method, req.Seed, o.err)
		case o.snap.State != jobs.StateDone || o.snap.Result == nil:
			err := fmt.Errorf("job %s (%s) ended %s: %s", o.snap.ID, o.sched.Kind, o.snap.State, o.snap.Error)
			rep.op(err)
			rep.incorrect("%v", err)
		default:
			res := o.snap.Result
			relErr := math.Inf(1)
			if res.RelErr99 != nil {
				relErr = *res.RelErr99
			}
			err := checkReference(req.Workload, res.Pf, relErr)
			if err != nil {
				err = fmt.Errorf("job %s (%s) seed %d: %w", o.snap.ID, o.sched.Kind, req.Seed, err)
			}
			rep.op(err)
			if o.sched.Kind == "repeat" {
				if !o.snap.Cached {
					rep.incorrect("job %s repeats a finished request but was not served from the cache", o.snap.ID)
				} else if orig := originals[req]; orig == nil || math.Float64bits(orig.Pf) != math.Float64bits(res.Pf) || orig.TotalSims != res.TotalSims {
					rep.incorrect("job %s: cache hit does not return the original result", o.snap.ID)
				}
			}
		}
	}
}

// warm runs the pool to completion and returns each request's result.
func warm(ctx context.Context, s *stack, pool []jobs.Request) (map[jobs.Request]*jobs.Result, error) {
	out := make(map[jobs.Request]*jobs.Result, len(pool))
	for _, req := range pool {
		snap, _, err := s.client.Submit(ctx, req, "")
		if err != nil {
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
		job, err := s.mgr.Get(snap.ID)
		if err != nil {
			return nil, err
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		snap = job.Snapshot()
		if snap.State != jobs.StateDone || snap.Result == nil {
			return nil, fmt.Errorf("warm-up job %s ended %s: %s", snap.ID, snap.State, snap.Error)
		}
		out[req] = snap.Result
	}
	return out, nil
}
