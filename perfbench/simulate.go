package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/crn"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// serverCacheSize is the response cache of server.Config{}: CacheSize 0
// means 128 entries.
const serverCacheSize = 128

// fillCache sends serverCacheSize cold bodies, untimed, so the response
// cache is full before the phases start. Otherwise it fills as fast as
// cold requests complete (a run sends 150 to 350 of them), and
// peak_heap_mb, which the cached ring ODE trajectories dominate, would
// follow the host's speed.
func (e *env) fillCache(ctx context.Context, t *tally) {
	for i := 0; i < serverCacheSize; i++ {
		_, err := do(ctx, "POST", e.srv.local.url+"/v1/simulate", e.gen.next().raw)
		t.record("simulate.fill", err)
	}
}

// hotSetSize is the number of bodies client B cycles. It is far below
// serverCacheSize, so the LRU keeps the whole set while client B cycles
// it; cold bodies sent while it does not can evict it, so each slice
// refreshes the set before the hot loop (see refreshHot).
const hotSetSize = 8

// hotCycle are the kinds of the hot set. The ring ODE trajectories (about
// 800 KiB each) are left out: served from cache they time a bulk copy, not
// the lookup and HTTP a hit costs, and the copy's time swings with the
// host's memory bandwidth (hot_p90 IQR/median 0.33 over ten seeds with
// them in the set).
var hotCycle = []int{kindClockODE, kindClockSSA, kindRingSSA}

// simBody is one /v1/simulate request.
type simBody struct {
	req server.SimulateRequest
	raw []byte
}

// Body kinds, and the order next sends them in. Clock ODE comes twice per
// cycle: sorted by latency the kinds are clock SSA, clock ODE, ring SSA and
// ring ODE, so this mix puts the cold p50 inside the clock ODE latencies
// and the p90 inside the ring ODE ones. With equal shares the p50 would sit
// on the boundary between two kinds and jump between them run to run.
const (
	kindClockODE = iota
	kindRingODE
	kindClockSSA
	kindRingSSA
)

var kindCycle = []int{kindClockODE, kindRingODE, kindClockSSA, kindClockODE, kindRingSSA}

// bodyGen draws /v1/simulate bodies from the seed. The kinds come in the
// order of kindCycle, so every seed sends the same mix; the seed draws each
// body's rates and SSA seed. Each body is distinct from every earlier one,
// so a body the server has not been sent is cold.
type bodyGen struct {
	rng  *rand.Rand
	n    *nets
	kind int
	seen map[string]bool
}

func newBodyGen(seed int64, n *nets) *bodyGen {
	return &bodyGen{rng: rand.New(rand.NewSource(seed)), n: n, seen: map[string]bool{}}
}

// next draws the next body: clock ODE, 4-register ring ODE with auto,
// clock SSA with an explicit seed, or ring SSA with runs=16.
func (g *bodyGen) next() simBody {
	return g.nextOf(kindCycle)
}

// nextOf draws the next body of the kinds cycle lists.
func (g *bodyGen) nextOf(cycle []int) simBody {
	for {
		var r server.SimulateRequest
		fast := math.Round((200+200*g.rng.Float64())*1000) / 1000
		seed := 1 + g.rng.Int63n(1<<40)
		kind := cycle[g.kind%len(cycle)]
		g.kind++
		switch kind {
		case kindClockODE:
			r = server.SimulateRequest{CRN: g.n.clockText, TEnd: clockTEnd, Fast: fast, Slow: 1}
		case kindRingODE:
			r = server.SimulateRequest{CRN: g.n.ring4Text, Solver: "auto", TEnd: ringTEnd, Fast: fast, Slow: 1}
		case kindClockSSA:
			r = server.SimulateRequest{CRN: g.n.clockText, Method: "ssa", Unit: ssaClockU, Seed: seed,
				TEnd: clockTEnd, Fast: clockFast, Slow: 1}
		case kindRingSSA:
			r = server.SimulateRequest{CRN: g.n.ring4Text, Method: "ssa", Runs: ssaRingRuns, Seed: seed,
				Unit: sweepUnit, TEnd: ringTEnd, Fast: clockFast, Slow: 1}
		}
		raw, err := json.Marshal(r)
		if err != nil {
			panic(err) // plain data always marshals
		}
		if key := string(raw); !g.seen[key] {
			g.seen[key] = true
			return simBody{req: r, raw: raw}
		}
	}
}

// hotEntry is one body of the hot set with the response it got cold.
type hotEntry struct {
	body simBody
	resp []byte
}

// warmHot sends the hot set once, so later sends are cache hits.
func warmHot(ctx context.Context, base string, bodies []simBody) ([]hotEntry, error) {
	out := make([]hotEntry, len(bodies))
	for i, b := range bodies {
		r, err := do(ctx, "POST", base+"/v1/simulate", b.raw)
		if err != nil {
			return nil, fmt.Errorf("warm hot body %d: %w", i, err)
		}
		out[i] = hotEntry{body: b, resp: r.body}
	}
	return out, nil
}

// refreshHot sends the hot set once more, untimed, so the hot loop that
// follows finds every body cached: a run of cold requests longer than the
// cache (one serial slice of a long traced run sends well over 128) evicts
// bodies the hot loop last touched. Each response must still be
// byte-identical to the one the body got in warm-up.
func refreshHot(ctx context.Context, base string, hot []hotEntry) error {
	for i, h := range hot {
		r, err := do(ctx, "POST", base+"/v1/simulate", h.body.raw)
		if err != nil {
			return fmt.Errorf("refresh hot body %d: %w", i, err)
		}
		if !bytes.Equal(r.body, h.resp) {
			return fmt.Errorf("refresh hot body %d: response differs from its warm-up response", i)
		}
	}
	return nil
}

// simSample is one timed /v1/simulate request. In the traced run it also
// carries the server's request span and the sum of its sim.* children.
//
// A response is checked or decoded as soon as it arrives and its body
// dropped, outside the timed interval: thousands of retained bodies would
// inflate peak_heap_mb with the benchmark's own memory.
type simSample struct {
	body            simBody
	lat             time.Duration
	res             httpResult
	err             error
	reqSpan, simDur time.Duration
	spanErr         error
	finals          []map[string]float64 // cold: per-run finals as served
	encode          time.Duration        // cold, traced: re-encoding the response
}

// simRun accumulates the requests of one simulate phase across its slices.
type simRun struct {
	cold, hot  []simSample
	hotIdx     int
	refreshErr []error // one per slice, from refreshHot
}

// slice drives /v1/simulate until budget is spent. With one client it
// sends cold bodies for the first half, collects garbage, refreshes the hot
// set and cycles it for the second half, so each class is timed alone; with
// two, it refreshes the hot set, then client A sends cold bodies while
// client B cycles the hot set, side by side. Both loops are closed: a
// client sends its next request once the previous one is answered.
//
// The span store is a bounded ring, so the traced run looks each request's
// spans up as soon as it is answered, outside the timed interval.
func (r *simRun) slice(ctx context.Context, e *env, budget time.Duration, traced bool) {
	base := e.srv.local.url
	store := e.srv.local.srv.Tracer().Store()
	send := func(b simBody) simSample {
		var s simSample
		s.body = b
		t0 := time.Now()
		s.res, s.err = do(ctx, "POST", base+"/v1/simulate", b.raw)
		s.lat = time.Since(t0)
		if traced && s.err == nil {
			s.reqSpan, s.simDur, s.spanErr = requestSpans(store, s.res.traceparent)
		}
		return s
	}
	coldLoop := func(until time.Time) {
		for time.Now().Before(until) || len(r.cold) == 0 {
			s := send(e.gen.next())
			if s.err == nil {
				s.finals, s.encode, s.err = decodeCold(s.res.body, traced)
			}
			s.res.body = nil
			r.cold = append(r.cold, s)
		}
	}
	hotLoop := func(until time.Time) {
		for time.Now().Before(until) || len(r.hot) == 0 {
			h := e.hot[r.hotIdx%len(e.hot)]
			r.hotIdx++
			s := send(h.body)
			if s.err == nil && s.res.cache != "hit" {
				s.err = fmt.Errorf("hot request was a cache %q", s.res.cache)
			}
			if s.err == nil && !bytes.Equal(s.res.body, h.resp) {
				s.err = errors.New("hot response differs from the cold response for the same body")
			}
			s.res.body = nil
			r.hot = append(r.hot, s)
		}
	}
	if e.clients == 1 {
		coldLoop(time.Now().Add(budget / 2))
		runtime.GC()
		r.refreshErr = append(r.refreshErr, refreshHot(ctx, base, e.hot))
		hotLoop(time.Now().Add(budget / 2))
		return
	}
	r.refreshErr = append(r.refreshErr, refreshHot(ctx, base, e.hot))
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hotLoop(deadline)
	}()
	coldLoop(deadline)
	wg.Wait()
}

// checkHot counts the hot requests and the refreshes before them; each was
// checked on arrival to be byte-identical to the cold response its body got
// in warm-up, and each hot request to be a cache hit.
func checkHot(r *simRun, t *tally) {
	for _, err := range r.refreshErr {
		t.record("simulate.refresh", err)
	}
	for _, s := range r.hot {
		t.record("simulate.hot", s.err)
	}
}

// checkCold requires every cold response to be a miss whose finals equal a
// direct sim.Run (sim.RunMany for ensembles) of the same config.
func (e *env) checkCold(ctx context.Context, cold []simSample, t *tally) {
	for _, s := range cold {
		err := s.err
		if err == nil && s.res.cache != "miss" {
			err = fmt.Errorf("cold request was a cache %q", s.res.cache)
		}
		if err == nil {
			err = checkColdFinals(ctx, s)
		}
		t.record("simulate.cold", err)
	}
}

// decodeCold extracts the per-run finals of a cold response; in the traced
// run it also times re-encoding the response, whose bytes must match the
// wire.
func decodeCold(body []byte, traced bool) ([]map[string]float64, time.Duration, error) {
	var resp server.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("decode response: %w", err)
	}
	var enc time.Duration
	if traced {
		var b []byte
		var err error
		enc = timed(func() { b, err = json.Marshal(&resp) })
		if err == nil && !bytes.Equal(b, body) {
			err = errors.New("re-encoded response differs from the wire bytes")
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if resp.Ensemble != nil {
		finals := make([]map[string]float64, len(resp.Ensemble.PerRun))
		for i, pr := range resp.Ensemble.PerRun {
			finals[i] = pr.Final
		}
		return finals, enc, nil
	}
	return []map[string]float64{resp.Final}, enc, nil
}

// checkColdFinals compares a cold response's finals with a direct sim.Run
// (sim.RunMany for ensembles) of the same config.
func checkColdFinals(ctx context.Context, s simSample) error {
	r := s.body.req
	n, err := crn.ParseString(r.CRN)
	if err != nil {
		return err
	}
	cfg, err := directConfig(r)
	if err != nil {
		return err
	}
	names := n.SpeciesNames()
	if r.Runs > 1 {
		ens, err := sim.RunMany(ctx, n, sim.BatchConfig{Base: cfg, Runs: r.Runs, FinalsOnly: true})
		if err != nil {
			return err
		}
		if len(s.finals) != r.Runs {
			return fmt.Errorf("ensemble response has %d runs, want %d", len(s.finals), r.Runs)
		}
		for i, f := range s.finals {
			if err := sameFinal(f, names, ens.Finals[i]); err != nil {
				return fmt.Errorf("run %d: %w", i, err)
			}
		}
		return nil
	}
	tr, err := sim.Run(ctx, n, cfg)
	if err != nil {
		return err
	}
	return sameFinal(s.finals[0], names, tr.Rows[len(tr.Rows)-1])
}

// directConfig maps a request to the sim.Config the server runs it with.
func directConfig(r server.SimulateRequest) (sim.Config, error) {
	method, err := sim.ParseMethod(r.Method)
	if err != nil {
		return sim.Config{}, err
	}
	solver, err := sim.ParseSolver(r.Solver)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Method: method, Solver: solver, Rates: sim.Rates{Fast: r.Fast, Slow: r.Slow},
		TEnd: r.TEnd, Unit: r.Unit, Seed: r.Seed}, nil
}

func sameFinal(got map[string]float64, names []string, want []float64) error {
	if len(got) != len(names) {
		return fmt.Errorf("response has %d finals, network %d species", len(got), len(names))
	}
	for i, name := range names {
		if v, ok := got[name]; !ok || math.Float64bits(v) != math.Float64bits(want[i]) {
			return fmt.Errorf("final %s = %v, direct run %v", name, got[name], want[i])
		}
	}
	return nil
}

func latenciesMS(ss []simSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	return out
}

// finishSimulate checks every request of the phase and reports the
// latency percentiles of each class.
func (e *env) finishSimulate(ctx context.Context, r *simRun, rep report, t *tally) {
	checkHot(r, t)
	e.checkCold(ctx, r.cold, t)
	c, h := latenciesMS(r.cold), latenciesMS(r.hot)
	rep["cold_p50_ms"] = quantile(c, 0.5)
	rep["cold_p90_ms"] = quantile(c, 0.9)
	rep["hot_p50_ms"] = quantile(h, 0.5)
	rep["hot_p90_ms"] = quantile(h, 0.9)
	fmt.Fprintf(e.log, "perfbench: simulate: %d cold (p99 %.2f ms), %d hot (p99 %.3f ms)\n",
		len(c), quantile(c, 0.99), len(h), quantile(h, 0.99))
}

// probeBodies is how many cold bodies the traced run replays through the
// parse, trace and encode layers directly. A fixed count drawn from the
// seed keeps trace.rows and server.response_kb exact.
const probeBodies = 8

// simulateTraced is the traced simulate phase: the same traffic, then each
// request's server span split into its sim.* children and the rest, and
// the parse, trace-append and encode layers timed by direct calls.
func (e *env) simulateTraced(ctx context.Context, budget time.Duration, rep report, t *tally, lt *layerTable) {
	hits0, miss0 := e.cacheCounts()
	r := &simRun{}
	r.slice(ctx, e, budget, true)
	cold, hot := r.cold, r.hot
	hits1, miss1 := e.cacheCounts()
	checkHot(r, t)
	e.checkCold(ctx, cold, t)

	tStart := time.Now()
	var simMS, overheadMS []float64
	for _, set := range [][]simSample{cold, hot} {
		for _, s := range set {
			if s.err != nil {
				continue // counted by the checks
			}
			t.record("simulate.spans", s.spanErr)
			if s.spanErr != nil {
				continue
			}
			lt.wall += s.lat.Seconds()
			lt.add("server.sim", s.simDur.Seconds())
			lt.add("server.rest", (s.reqSpan - s.simDur).Seconds())
			if s.res.cache == "miss" {
				simMS = append(simMS, ms(s.simDur))
				overheadMS = append(overheadMS, ms(s.reqSpan-s.simDur))
			}
		}
	}
	rep["server.sim_ms"] = median(simMS)
	rep["server.overhead_ms"] = median(overheadMS)
	rep["server.cache_hit_ratio"] = (hits1 - hits0) / (hits1 - hits0 + miss1 - miss0)

	var encodeS float64
	for _, c := range cold {
		encodeS += c.encode.Seconds()
	}
	lt.add("server.encode", encodeS)
	lt.add("server.rest", -encodeS)

	// Parse, trace and encode probes on a fixed set of cold bodies.
	g := newBodyGen(e.seed+1, e.nets)
	var parseUS, appendUS, rows, encUS, kb []float64
	for i := 0; i < probeBodies; i++ {
		b := g.next()
		var n *crn.Network
		var err error
		parseUS = append(parseUS, timed(func() { n, err = crn.ParseString(b.req.CRN) }).Seconds()*1e6)
		if err != nil {
			t.record("simulate.probe", err)
			continue
		}
		if b.req.Runs > 1 {
			continue // ensembles return finals only, no trace
		}
		cfg, err := directConfig(b.req)
		var tr *trace.Trace
		if err == nil {
			tr, err = sim.Run(ctx, n, cfg)
		}
		if err != nil {
			t.record("simulate.probe", err)
			continue
		}
		replay := trace.New(tr.Names)
		d := timed(func() {
			for k, row := range tr.Rows {
				if err = replay.Append(tr.T[k], row); err != nil {
					return
				}
			}
		})
		t.record("simulate.probe", err)
		appendUS = append(appendUS, d.Seconds()*1e6/float64(len(tr.Rows)))
		rows = append(rows, float64(len(tr.Rows)))
		res, err := do(ctx, "POST", e.srv.local.url+"/v1/simulate", b.raw)
		if err != nil {
			t.record("simulate.probe", err)
			continue
		}
		var resp server.SimulateResponse
		if err := json.Unmarshal(res.body, &resp); err != nil {
			t.record("simulate.probe", err)
			continue
		}
		encUS = append(encUS, timed(func() { _, err = json.Marshal(&resp) }).Seconds()*1e6)
		kb = append(kb, float64(len(res.body))/1024)
	}
	rep["crn.parse_us"] = median(parseUS)
	rep["trace.append_us"] = median(appendUS)
	rep["trace.rows"] = mean(rows)
	rep["server.encode_us"] = median(encUS)
	rep["server.response_kb"] = mean(kb)
	rep["trace_overhead_s.simulate"] = time.Since(tStart).Seconds()
}

// requestSpans finds a request's server span by its traceparent and sums
// the durations of its direct children (the sim.* spans).
func requestSpans(store *span.Store, traceparent string) (req, sim time.Duration, err error) {
	tid, sid, err := span.ParseTraceparent(traceparent)
	if err != nil {
		return 0, 0, fmt.Errorf("traceparent %q: %w", traceparent, err)
	}
	found := false
	for _, d := range store.Trace(tid) {
		switch {
		case d.SpanID == sid:
			req, found = d.Duration(), true
		case d.ParentID == sid && strings.HasPrefix(d.Name, "sim."):
			sim += d.Duration()
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("span %s not in the tracer's store", sid)
	}
	return req, sim, nil
}

// cacheCounts reads the local server's response-cache counters.
func (e *env) cacheCounts() (hits, misses float64) {
	c := e.srv.local.srv.Registry().Counters()
	return c[`cache_hits_total{cache="response"}`], c[`cache_misses_total{cache="response"}`]
}
