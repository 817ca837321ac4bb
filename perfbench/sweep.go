package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// sweepSeeds is the number of distinct job seeds a run cycles through;
// each has a golden result computed directly during set-up.
const sweepSeeds = 4

// sweepPoints is the size of every job: 3 ratios × 32 runs.
var sweepPoints = len(sweepRatios) * sweepRuns

// jobBody is the ring SSA sweep job for one seed.
func (e *env) jobBody(seed int64, watch bool) []byte {
	b, err := json.Marshal(server.JobRequest{
		CRN: e.nets.ring8Text, Method: "ssa", TEnd: sweepTEnd, Unit: sweepUnit,
		Seed: seed, Runs: sweepRuns, Ratios: sweepRatios, Watch: watch,
	})
	if err != nil {
		panic(err) // plain data always marshals
	}
	return b
}

// sweepConfig is the BatchConfig a server job runs for one seed, unwatched
// unless watch is set (watchers force the scalar backend, as in a job).
func sweepConfig(seed int64, watch bool, net *crn.Network, stats *kernel.Stats) sim.BatchConfig {
	base := sim.Config{Method: sim.SSA, Rates: sim.DefaultRates(), TEnd: sweepTEnd,
		Unit: sweepUnit, Seed: seed, Kernel: stats}
	return sim.BatchConfig{
		Base: base, Runs: sweepPoints, Workers: runtime.NumCPU(), FinalsOnly: true,
		Configure: func(i int, cfg *sim.Config) {
			cfg.Rates = sim.Rates{Fast: base.Rates.Slow * sweepRatios[i/sweepRuns], Slow: base.Rates.Slow}
			if watch {
				cfg.Obs = obs.Nop
				cfg.Watchers = sim.AutoWatchers(net)
			}
		},
	}
}

// directSweep runs one job's sweep through sim.RunMany and renders its
// results the way GET /v1/jobs/{id} does.
func (e *env) directSweep(ctx context.Context, seed int64, watch bool, stats *kernel.Stats) ([]byte, time.Duration, error) {
	net, err := crn.ParseString(e.nets.ring8Text)
	if err != nil {
		return nil, 0, err
	}
	bc := sweepConfig(seed, watch, net, stats)
	var ens *trace.Ensemble
	d := timed(func() { ens, err = sim.RunMany(ctx, net, bc) })
	if err == nil {
		err = ens.Err()
	}
	if err != nil {
		return nil, d, err
	}
	results := make([]server.PointResult, sweepPoints)
	for i := range results {
		final := make(map[string]float64, len(ens.Names))
		for c, name := range ens.Names {
			final[name] = ens.Finals[i][c]
		}
		results[i] = server.PointResult{Index: i, Ratio: sweepRatios[i/sweepRuns],
			Seed: batch.DeriveSeed(seed, i), Final: final}
	}
	b, err := json.Marshal(results)
	return b, d, err
}

// makeGoldens draws the job seeds and computes each one's golden results
// by a direct sim.RunMany.
func (e *env) makeGoldens(ctx context.Context) error {
	rng := rand.New(rand.NewSource(e.seed + 2))
	e.golden = map[int64][]byte{}
	for len(e.jobSeeds) < sweepSeeds {
		s := 1 + rng.Int63n(1<<40)
		if _, dup := e.golden[s]; dup {
			continue
		}
		b, _, err := e.directSweep(ctx, s, false, nil)
		if err != nil {
			return fmt.Errorf("golden sweep for seed %d: %w", s, err)
		}
		e.jobSeeds = append(e.jobSeeds, s)
		e.golden[s] = b
	}
	return nil
}

// jobSample is one timed sweep job.
type jobSample struct {
	watch   bool
	wall    time.Duration
	jobSpan time.Duration // the server's job span, traced runs only
	err     error
}

// runJob submits one job, times it from submit to the job_done frame on
// its SSE stream, then fetches its results and requires them to be
// byte-identical to golden. The results are dropped once checked, so the
// benchmark's own memory does not grow with the number of jobs.
func runJob(ctx context.Context, base string, body, golden []byte, watch, traced bool, store *span.Store) jobSample {
	s := jobSample{watch: watch}
	t0 := time.Now()
	r, err := do(ctx, "POST", base+"/v1/jobs", body)
	if err != nil {
		s.err = err
		return s
	}
	var st server.JobStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		s.err = fmt.Errorf("decode submit response: %w", err)
		return s
	}
	state, err := waitJobDone(ctx, base, st.ID)
	s.wall = time.Since(t0)
	if err == nil && state != "done" {
		err = fmt.Errorf("job %s ended %s", st.ID, state)
	}
	if err != nil {
		s.err = err
		return s
	}
	if r, err = do(ctx, "GET", base+"/v1/jobs/"+st.ID, nil); err != nil {
		s.err = err
		return s
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		s.err = fmt.Errorf("decode job status: %w", err)
		return s
	}
	results, err := json.Marshal(st.Results)
	if err == nil && !bytes.Equal(results, golden) {
		err = errors.New("job results differ from the golden sweep")
	}
	if s.err = err; err != nil {
		return s
	}
	if traced {
		s.jobSpan, s.err = jobSpan(store, st.ID)
	}
	return s
}

// jobSpan finds the server's "job <id>" span among the store's spans.
func jobSpan(store *span.Store, id string) (time.Duration, error) {
	for _, d := range store.Recent(store.Len()) {
		if d.Name == "job "+id {
			return d.Duration(), nil
		}
	}
	return 0, fmt.Errorf("span of %s not in the tracer's store", id)
}

// sweepRun accumulates the jobs of one sweep phase across its slices.
type sweepRun struct {
	n     *node
	mixed bool // alternate plain and watched jobs (sweep-local)
	mu    sync.Mutex
	jobs  []jobSample
	seeds int // jobs started: the next uses jobSeeds[seeds%len]
}

// slice runs jobs until budget is spent. With one client, jobs run one at
// a time, alternating plain and watched when mixed is set; with two, one
// client sends plain jobs and the other watched ones (plain too unless
// mixed). A job starts only while its class's median so far still fits
// before the deadline; each class runs at least once.
func (r *sweepRun) slice(ctx context.Context, e *env, budget time.Duration, traced bool) {
	deadline := time.Now().Add(budget)
	store := r.n.srv.Tracer().Store()
	fits := func(watch bool) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		var walls []float64
		for _, s := range r.jobs {
			if s.watch == watch {
				walls = append(walls, s.wall.Seconds())
			}
		}
		if len(walls) == 0 {
			return true
		}
		return time.Now().Add(time.Duration(median(walls) * float64(time.Second))).Before(deadline)
	}
	one := func(watch bool) {
		r.mu.Lock()
		seed := e.jobSeeds[r.seeds%len(e.jobSeeds)]
		r.seeds++
		r.mu.Unlock()
		s := runJob(ctx, r.n.url, e.jobBody(seed, watch), e.golden[seed], watch, traced, store)
		r.mu.Lock()
		r.jobs = append(r.jobs, s)
		r.mu.Unlock()
	}
	if e.clients == 1 {
		for i := 0; ; i++ {
			watch := r.mixed && i%2 == 1
			if !fits(watch) {
				return
			}
			one(watch)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		watch := r.mixed && c == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fits(watch) {
				one(watch)
			}
		}()
	}
	wg.Wait()
}

// checkJobs counts each job, whose results runJob required to be
// byte-identical to the golden of its seed — for watched jobs too, whose
// finals must equal the plain ones — and returns the job throughput of
// each class.
func (e *env) checkJobs(jobs []jobSample, op string, t *tally) (plainPPS, watchedPPS float64) {
	var plainWall, watchWall float64
	var plainN, watchN int
	for _, s := range jobs {
		t.record(op, s.err)
		if s.watch {
			watchWall += s.wall.Seconds()
			watchN += sweepPoints
		} else {
			plainWall += s.wall.Seconds()
			plainN += sweepPoints
		}
	}
	return float64(plainN) / plainWall, float64(watchN) / watchWall
}

// finishSweeps checks every job of both sweep phases and reports their
// throughput.
func (e *env) finishSweeps(local, cluster *sweepRun, rep report, t *tally) {
	rep["sweep_points_per_s"], rep["watched_points_per_s"] = e.checkJobs(local.jobs, "sweep-local", t)
	rep["cluster_points_per_s"], _ = e.checkJobs(cluster.jobs, "sweep-cluster", t)
	fmt.Fprintf(e.log, "perfbench: sweeps: %d local jobs, %d cluster jobs\n", len(local.jobs), len(cluster.jobs))
}

// sweepTraced is the traced run of either sweep phase: the same jobs, each
// split by the server's job span into compute (the same sweep run directly
// through sim.RunMany) and dispatch, with the client's remaining time as
// "other". The local phase also reports the lane engine's counters for the
// plain sweep and the scalar loop count for the watched one.
func (e *env) sweepTraced(ctx context.Context, budget time.Duration, cluster bool, rep report, t *tally, lt *layerTable) {
	n, op, dispatch := e.srv.local, "sweep-local", "jobs.dispatch"
	if cluster {
		n, op, dispatch = e.srv.coord, "sweep-cluster", "cluster.dispatch"
	}
	counters := func() map[string]float64 { return n.srv.Registry().Counters() }
	c0 := counters()
	r := &sweepRun{n: n, mixed: !cluster}
	r.slice(ctx, e, budget, true)
	jobs := r.jobs
	c1 := counters()
	e.checkJobs(jobs, op, t)

	tStart := time.Now()
	direct := map[bool][]float64{} // direct RunMany walls by watch
	for _, watch := range []bool{false, true} {
		if cluster && watch {
			continue
		}
		for _, seed := range e.jobSeeds {
			var stats kernel.Stats
			b, d, err := e.directSweep(ctx, seed, watch, &stats)
			if err == nil && string(b) != string(e.golden[seed]) {
				err = errors.New("direct sweep differs from the golden")
			}
			t.record(op+".direct", err)
			direct[watch] = append(direct[watch], d.Seconds())
			if cluster || seed != e.jobSeeds[0] {
				continue
			}
			if watch {
				rep["ssa.scalar_loops"] = float64(stats.TightLoops + stats.FullLoops)
			} else {
				rep["ssa.lane_occupancy"] = stats.Occupancy()
				rep["ssa.lane_passes"] = float64(stats.EnsemblePasses)
			}
		}
	}
	var dispatchMS []float64
	for _, s := range jobs {
		if s.err != nil {
			continue
		}
		compute := median(direct[s.watch])
		lt.wall += s.wall.Seconds()
		lt.add("ssa.compute", compute)
		lt.add(dispatch, s.jobSpan.Seconds()-compute)
		if !s.watch {
			dispatchMS = append(dispatchMS, (s.jobSpan.Seconds()-compute)*1e3)
		}
	}
	if cluster {
		njobs := float64(len(jobs))
		parts := c1["cluster_partitions_dispatched_total"] - c0["cluster_partitions_dispatched_total"] +
			c1["cluster_partitions_local_total"] - c0["cluster_partitions_local_total"]
		rep["cluster.dispatch_ms"] = median(dispatchMS)
		rep["cluster.partitions"] = parts / njobs
		rep["cluster.retries"] = (c1["cluster_partition_retries_total"] - c0["cluster_partition_retries_total"]) / njobs
	} else {
		rep["ssa.ns_per_run"] = median(direct[false]) / float64(sweepPoints) * 1e9
		rep["jobs.dispatch_ms"] = median(dispatchMS)
	}
	rep["trace_overhead_s."+op] = time.Since(tStart).Seconds()
}
