package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/crn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cluster HTTP surface. Every crnserved process mounts the partition
// executor (POST /cluster/v1/partition) — any node can do sweep work — while
// the membership endpoints (join/heartbeat/leave/workers) exist only on a
// node built with Config.Cluster, the coordinator.
//
// The deterministic sharding contract lives in runPartition, the one sweep
// executor of every topology: a partition is the global sweep restricted to
// [lo, hi), each point keeping its global index — and with it its ratio
// (index/runs) and its RNG seed (batch.DeriveSeed(base, index)). sim.RunMany
// receives those seeds explicitly, so the bits a worker produces for point i
// are exactly the bits a single-node job produces running the whole sweep
// through the same function, regardless of how the sweep was chunked, which
// worker ran it, or how often it was retried.

// handleClusterJoin is POST /cluster/v1/join.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errf(http.StatusServiceUnavailable, CodeUnavailable, "server is draining"))
		return
	}
	var req cluster.JoinRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest, "join needs id and addr"))
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Join(req))
}

// handleClusterHeartbeat is POST /cluster/v1/heartbeat. A 404 tells the
// worker its registration is gone and it must re-join.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if !s.coord.Heartbeat(req.ID) {
		writeError(w, errf(http.StatusNotFound, CodeNotFound, "unknown worker %q, re-join", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleClusterLeave is POST /cluster/v1/leave.
func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.coord.Leave(req.ID)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleClusterWorkers is GET /cluster/v1/workers.
func (s *Server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.coord.Workers()})
}

// handlePartition is POST /cluster/v1/partition: execute sweep points
// [lo, hi) and return their outcomes plus this node's telemetry — the
// counter deltas accumulated while executing and the span tree of the
// execution, parented under the coordinator's dispatch span via the incoming
// traceparent so the merged trace shows remote work in place.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errf(http.StatusServiceUnavailable, CodeUnavailable, "server is draining"))
		return
	}
	var req cluster.PartitionRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if d := s.cfg.PartitionDelay; d > 0 {
		// Network-latency emulation for scale-model benchmarking (see
		// Config.PartitionDelay); never set in production.
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}

	// The partition runs under its own registry and tracer so its telemetry
	// is shippable as a delta; both are folded into this node's own surfaces
	// afterwards, so a worker's /metrics and /debug/tracez stay truthful.
	preg := obs.NewRegistry()
	ptracer := span.NewTracer(0)
	var psp *span.Span
	if tid, sid, err := span.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		psp = ptracer.Join(tid, sid, fmt.Sprintf("cluster.exec[%d]", req.Part))
	} else {
		psp = ptracer.Root(fmt.Sprintf("cluster.exec[%d]", req.Part))
	}
	psp.SetAttr("job.id", req.Job)
	psp.SetAttr("cluster.lo", req.Lo)
	psp.SetAttr("cluster.hi", req.Hi)

	ctx := span.NewContext(r.Context(), psp)
	outs, err := s.runPartition(ctx, &req.Sweep, req.Lo, req.Hi, preg, jobHooks{})
	psp.SetError(err)
	psp.End()

	counters := preg.Counters()
	s.reg.Merge(preg)
	spans := ptracer.Store().Recent(0)
	for _, d := range spans {
		s.tracer.Store().Ingest(d)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	s.reg.Counter("cluster_partitions_served_total").Inc()
	writeJSON(w, http.StatusOK, cluster.PartitionResponse{
		Outcomes: outs, Metrics: counters, Spans: spans,
	})
}

// localPartition adapts runPartition to the coordinator's Deps.Local
// signature: the fallback path runs against the server's own registry and
// whatever span is on ctx (the job span), exactly like local sweep points.
func (s *Server) localPartition(ctx context.Context, sw *cluster.Sweep, lo, hi int) ([]cluster.Outcome, error) {
	return s.runPartition(ctx, sw, lo, hi, s.reg, jobHooks{})
}

// checkSweep validates a sweep and returns its network and base config. It
// is the one admission check for sweeps: POST /v1/jobs runs it to reject a
// bad job with a 4xx before accepting it, and runPartition runs it again
// because a partition request is untrusted input in its own right.
func (s *Server) checkSweep(sw *cluster.Sweep) (*crn.Network, sim.Config, error) {
	if sw.CRN == "" {
		return nil, sim.Config{}, errf(http.StatusBadRequest, CodeInvalidRequest, "crn is required")
	}
	method, err := sim.ParseMethod(sw.Method)
	if err != nil {
		return nil, sim.Config{}, errf(http.StatusBadRequest, CodeInvalidRequest, "%v", err)
	}
	net, err := s.loadNetwork(sw.CRN)
	if err != nil {
		return nil, sim.Config{}, err
	}
	for _, name := range sw.Record {
		if _, ok := net.SpeciesIndex(name); !ok {
			return nil, sim.Config{}, errf(http.StatusBadRequest, CodeInvalidRequest,
				"record species %q not in the network", name)
		}
	}
	for _, ratio := range sw.Ratios {
		if ratio < 1 {
			return nil, sim.Config{}, errf(http.StatusBadRequest, CodeInvalidRequest,
				"ratio %g below 1 inverts the fast/slow dichotomy", ratio)
		}
	}
	// Compare runs against limit/ratios: the product runs × ratios can
	// overflow int and wrap below the limit.
	runs, ratios, limit := sw.RunsPerRatio(), max(1, len(sw.Ratios)), s.cfg.Limits.MaxSweepPoints
	if runs > limit/ratios {
		return nil, sim.Config{}, errf(http.StatusUnprocessableEntity, CodeLimitExceeded,
			"sweep of %d runs × %d ratios exceeds the limit of %d points", runs, ratios, limit)
	}
	base := SimulateRequest{
		Method: sw.Method, TEnd: sw.TEnd, SampleEvery: sw.SampleEvery,
		Fast: sw.Fast, Slow: sw.Slow, Unit: sw.Unit,
	}
	cfg := base.simConfig(method, sim.SolverAuto)
	cfg.Seed = sw.Seed
	if err := cfg.Validate(); err != nil {
		return nil, sim.Config{}, configError(err)
	}
	return net, cfg, nil
}

// jobHooks are what a local job adds to runPartition; the partition handler
// and the coordinator's local fallback pass the zero value.
type jobHooks struct {
	configure func(cfg *sim.Config)   // attach a point's observer and watchers
	started   func()                  // a unit of work won its simulation slot
	deliver   func([]cluster.Outcome) // one finished point, as it completes
}

// runPartition is the one sweep executor: it turns the window [lo, hi) of a
// sweep into point outcomes through sim.RunMany, with the global per-point
// seeds and ratios — the deterministic sharding contract. Single-node jobs
// run their whole sweep through it, cluster workers and the coordinator's
// local fallback one chunk at a time. A point canceled before it ran keeps
// a "skipped" outcome and is not delivered.
func (s *Server) runPartition(ctx context.Context, sw *cluster.Sweep, lo, hi int, reg *obs.Registry, hooks jobHooks) ([]cluster.Outcome, error) {
	net, baseCfg, err := s.checkSweep(sw)
	if err != nil {
		return nil, err
	}
	if points := sw.Points(); lo < 0 || hi > points || lo >= hi {
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest,
			"bad partition window [%d,%d) of %d points", lo, hi, points)
	}
	baseRates := baseCfg.Rates

	// The finals projection: recorded species (default all) and their
	// columns in the species-ordered finals row.
	recorded := sw.Record
	if len(recorded) == 0 {
		recorded = net.SpeciesNames()
	}
	cols := make([]int, len(recorded))
	for k, name := range recorded {
		cols[k], _ = net.SpeciesIndex(name)
	}

	n := hi - lo
	outs := make([]cluster.Outcome, n)
	for j := range outs {
		outs[j] = cluster.Outcome{Index: lo + j, Err: "skipped: partition ended before this point started"}
	}
	var seeds []int64
	if baseCfg.Method != sim.ODE {
		// Explicit global seeds: point lo+j gets the seed the single-node
		// engine would derive for index lo+j. (The ODE never draws and keeps
		// the base seed, matching RunMany's own derivation branch.)
		seeds = make([]int64, n)
		for j := range seeds {
			seeds[j] = sw.PointSeed(lo + j)
		}
	}
	_, runErr := sim.RunMany(ctx, net, sim.BatchConfig{
		Base:       baseCfg,
		Runs:       n,
		Seeds:      seeds,
		Workers:    s.cfg.Workers,
		FinalsOnly: true,
		Metrics:    reg,
		JobTimeout: s.deadline(sw.TimeoutSeconds),
		Gate: func(ctx context.Context) (func(), error) {
			if _, err := s.acquireSim(ctx); err != nil {
				return nil, err
			}
			if hooks.started != nil {
				hooks.started()
			}
			return s.releaseSim, nil
		},
		Configure: func(j int, cfg *sim.Config) {
			if ratio := sw.Ratio(lo + j); ratio > 0 {
				cfg.Rates = sim.Rates{Fast: baseRates.Slow * ratio, Slow: baseRates.Slow}
			}
			if hooks.configure != nil {
				hooks.configure(cfg)
			}
		},
		OnResult: func(j int, _ *trace.Trace, finals []float64, err error) {
			if err != nil && context.Cause(ctx) != nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				return // canceled while it waited for its slot: it never ran
			}
			o := cluster.Outcome{Index: lo + j}
			if err != nil {
				o.Err = err.Error()
			} else {
				o.Final = make(map[string]float64, len(cols))
				for k, col := range cols {
					o.Final[recorded[k]] = finals[col]
				}
			}
			outs[j] = o
			if hooks.deliver != nil {
				hooks.deliver(outs[j : j+1])
			}
		},
	})
	if runErr != nil {
		var ce *sim.ConfigError
		if errors.As(runErr, &ce) {
			return nil, configError(runErr)
		}
		if cerr := context.Cause(ctx); cerr != nil {
			return nil, errf(statusForCtx(cerr), CodeCanceled, "partition interrupted: %v", runErr)
		}
		return nil, errf(http.StatusUnprocessableEntity, CodeSimFailed, "%v", runErr)
	}
	return outs, nil
}
