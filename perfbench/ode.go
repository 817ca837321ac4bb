package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/crn"
	"repro/internal/ode"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// solveKind is one of the ode-solve phase's five solves.
type solveKind struct {
	metric string // end-to-end metric: median wall time per solve
	net    string // network name used by the per-layer metrics
	n      *crn.Network
	cfg    sim.Config
}

func (e *env) solveKinds() []solveKind {
	ringRates := sim.Rates{Fast: ringFast, Slow: 1}
	dsdRates := sim.Rates{Fast: dsdFast, Slow: 1}
	return []solveKind{
		{"stiff_ring_s", "ring", e.nets.ring, sim.Config{Solver: sim.SolverStiff, Rates: ringRates, TEnd: ringTEnd}},
		{"stiff_dsdchain_s", "dsdchain", e.nets.chain, sim.Config{Solver: sim.SolverStiff, Rates: dsdRates, TEnd: chainTEnd}},
		{"stiff_dsdmovavg2_s", "dsdmovavg2", e.nets.movavg2, sim.Config{Solver: sim.SolverStiff, Rates: dsdRates, TEnd: movavgTEnd}},
		{"auto_ring_s", "ring", e.nets.ring, sim.Config{Solver: sim.SolverAuto, Rates: ringRates, TEnd: ringTEnd}},
		{"auto_dsdchain_s", "dsdchain", e.nets.chain, sim.Config{Solver: sim.SolverAuto, Rates: dsdRates, TEnd: chainTEnd}},
	}
}

// movavg2Ref is the stiff movavg2 final state, recorded once with
// `go test -run TestMovavg2Reference -update` and checked on every solve.
//
//go:embed testdata/movavg2_final.json
var movavg2RefJSON []byte

func movavg2Ref(n *crn.Network) ([]float64, error) {
	var m map[string]float64
	if err := json.Unmarshal(movavg2RefJSON, &m); err != nil {
		return nil, fmt.Errorf("movavg2 reference: %w", err)
	}
	names := n.SpeciesNames()
	if len(m) != len(names) {
		return nil, fmt.Errorf("movavg2 reference has %d species, network %d", len(m), len(names))
	}
	out := make([]float64, len(names))
	for i, name := range names {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("movavg2 reference lacks species %s", name)
		}
		out[i] = v
	}
	return out, nil
}

// solveSamples holds every solve of one kind made in a phase.
type solveSamples struct {
	walls  []float64
	finals [][]float64
	errs   []error
}

// solveRun accumulates the solves of one phase across its slices.
type solveRun struct {
	kinds []solveKind
	out   []solveSamples
	mu    sync.Mutex
	next  int // solves started: the next one is kinds[next%len(kinds)]
}

func newSolveRun(kinds []solveKind) *solveRun {
	return &solveRun{kinds: kinds, out: make([]solveSamples, len(kinds))}
}

// slice runs the solves round-robin on e.clients goroutines until budget
// is spent, so every kind gets the same number of samples (±1). The first
// round always runs; after it, a solve starts only if its kind's median so
// far still fits before the deadline. The next slice resumes the rotation.
func (r *solveRun) slice(ctx context.Context, clients int, budget time.Duration) {
	deadline := time.Now().Add(budget)
	pick := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		k := r.next % len(r.kinds)
		// A kind whose first solve is still running has no estimate yet; it
		// is allowed.
		if r.next >= len(r.kinds) && len(r.out[k].walls) > 0 {
			est := time.Duration(median(r.out[k].walls) * float64(time.Second))
			if time.Now().Add(est).After(deadline) {
				return -1
			}
		}
		r.next++
		return k
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := pick(); k >= 0; k = pick() {
				var tr *trace.Trace
				var err error
				d := timed(func() { tr, err = sim.Run(ctx, r.kinds[k].n, r.kinds[k].cfg) })
				var final []float64
				if err == nil {
					// A copy: the last row shares the trace's backing
					// array, and keeping it would keep every solve's
					// trace live and in peak_heap_mb.
					final = append(final, tr.Rows[len(tr.Rows)-1]...)
				}
				r.mu.Lock()
				r.out[k].walls = append(r.out[k].walls, d.Seconds())
				r.out[k].finals = append(r.out[k].finals, final)
				r.out[k].errs = append(r.out[k].errs, err)
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// checkSolves applies the ode-solve checks to every solve and counts each
// solve that fails one: every repeat equals the kind's first final bit for
// bit; stiff and auto finals agree within 10×RelTol (the ring on its
// decoded state, see below); movavg2 matches its stored reference.
func (e *env) checkSolves(kinds []solveKind, s []solveSamples, t *tally) {
	first := func(k int) []float64 {
		if len(s[k].finals) == 0 {
			return nil
		}
		return s[k].finals[0]
	}
	stiffOf := map[string]int{}
	for k, kd := range kinds {
		if kd.cfg.Solver == sim.SolverStiff {
			stiffOf[kd.net] = k
		}
	}
	ref, refErr := movavg2Ref(e.nets.movavg2)
	for k, kd := range kinds {
		kindErr := error(nil)
		f0 := first(k)
		if kd.cfg.Solver == sim.SolverAuto {
			st := first(stiffOf[kd.net])
			switch {
			case f0 == nil || st == nil:
				kindErr = errors.New("no final to compare")
			case kd.net == "ring":
				// Mid-transfer at t=10, a phase shift far below the clock
				// period moves token mass between a register's stages, so
				// the ring is compared on its decoded state — the token mass
				// each register holds, and the token's position — and
				// species by species only within 100×RelTol.
				r := e.nets
				if maxRelDiff(f0, st) > 100*relTol {
					kindErr = errors.New("auto and stiff finals differ by more than 100×RelTol")
				} else if !withinTol(registerMass(r.ring, r.ringRegs, f0), registerMass(r.ring, r.ringRegs, st)) {
					kindErr = errors.New("auto and stiff register token masses differ by more than 10×RelTol")
				} else if tokenPosition(r.ring, r.ringRegs, f0) != tokenPosition(r.ring, r.ringRegs, st) {
					kindErr = errors.New("ring token position differs between auto and stiff")
				}
				fmt.Fprintf(e.log, "perfbench: ring auto vs stiff: largest per-species difference %.2g (relative)\n", maxRelDiff(f0, st))
			case !withinTol(f0, st):
				kindErr = errors.New("auto and stiff finals differ by more than 10×RelTol")
			}
		}
		if kd.net == "dsdmovavg2" {
			if refErr != nil {
				kindErr = refErr
			} else if f0 == nil || !withinTol(f0, ref) {
				kindErr = errors.New("movavg2 final does not match the stored reference")
			}
		}
		for j := range s[k].walls {
			err := s[k].errs[j]
			if err == nil && kindErr != nil {
				err = kindErr
			}
			if err == nil && !sameBits(s[k].finals[j], f0) {
				err = errors.New("repeat solve differs from the first")
			}
			t.record(kd.metric, err)
		}
	}
}

// finishSolves checks every solve of the phase and reports the median wall
// time per solve of each kind.
func (e *env) finishSolves(r *solveRun, rep report, t *tally) {
	e.checkSolves(r.kinds, r.out, t)
	for k, kd := range r.kinds {
		w := r.out[k].walls
		rep[kd.metric] = median(w)
		fmt.Fprintf(e.log, "perfbench: %s: %d solves, %.3f..%.3f s\n", kd.metric, len(w), quantile(w, 0), quantile(w, 1))
	}
}

// timedJac wraps the kernel's Jacobian as an ode.Jacobian, timing Fill.
type timedJac struct {
	k     *kernel.Compiled
	j     *kernel.Jacobian
	dur   time.Duration
	calls int
}

func (a *timedJac) Dim() int                          { return a.j.Dim() }
func (a *timedJac) Pattern() (colPtr, rowIdx []int32) { return a.j.Pattern() }
func (a *timedJac) Fill(_ float64, y, nz []float64) {
	t0 := time.Now()
	a.j.Fill(a.k, y, nz)
	a.dur += time.Since(t0)
	a.calls++
}

// driveResult is one traced drive of a solve through the ode package.
type driveResult struct {
	final                          []float64
	outer, compile, wall, newStiff time.Duration // whole drive; kernel.Compile; Integrate calls; NewStiff
	derivDur, fillDur, appendDur   time.Duration
	stats, stiffStats              ode.Stats // all legs; the stiff leg alone
	switched                       bool
	switchT                        float64
	jacNNZ, dim                    int
}

// drive integrates one solve the way sim.Run does, but by calling
// ode.Integrate and ode.NewStiff(j).Integrate directly, with the kernel's
// Deriv and Jacobian.Fill wrapped in timers and the trace appends timed.
func drive(ctx context.Context, kd solveKind) (driveResult, error) {
	t0 := time.Now()
	r, err := driveInner(ctx, kd)
	r.outer = time.Since(t0)
	return r, err
}

func driveInner(ctx context.Context, kd solveKind) (driveResult, error) {
	var r driveResult
	cfg := kd.cfg
	sample := cfg.TEnd / 1000 // sim's default SampleEvery
	opts := ode.Options{MaxStep: sample, NonNegative: true}
	var k *kernel.Compiled
	r.compile = timed(func() { k = kernel.Compile(kd.n, cfg.Rates.Of) })
	y := kd.n.Init()
	r.dim = len(y)

	var derivCalls int
	deriv := func(_ float64, yy, dydt []float64) {
		t0 := time.Now()
		k.Deriv(yy, dydt)
		r.derivDur += time.Since(t0)
		derivCalls++
	}
	tr := trace.New(kd.n.SpeciesNames())
	tr.Grow(int(cfg.TEnd/sample) + 2)
	if err := tr.Append(0, y); err != nil {
		return r, err
	}
	next := sample
	cb := func(t float64, yy []float64) (bool, bool) {
		if t >= next {
			t0 := time.Now()
			if err := tr.Append(t, yy); err == nil {
				for t >= next {
					next += sample
				}
			}
			r.appendDur += time.Since(t0)
		}
		return false, false
	}
	jac := &timedJac{k: k, j: k.Jac()}
	r.jacNNZ = jac.j.NNZ()

	stiffFrom := func(t0 float64) error {
		var s *ode.Stiff
		r.newStiff = timed(func() { s = ode.NewStiff(jac) })
		var st ode.Stats
		var err error
		r.wall += timed(func() { st, err = s.Integrate(ctx, deriv, y, t0, cfg.TEnd, opts, cb) })
		r.stiffStats = st
		r.stats.Add(st)
		return err
	}
	var err error
	if cfg.Solver == sim.SolverStiff {
		err = stiffFrom(0)
	} else {
		auto := opts
		auto.StiffDetect = true
		var st ode.Stats
		r.wall += timed(func() { st, err = ode.Integrate(ctx, deriv, y, 0, cfg.TEnd, auto, cb) })
		r.stats = st
		if err != nil && (errors.Is(err, ode.ErrStiff) || errors.Is(err, ode.ErrMinStep)) {
			r.switched, r.switchT = true, st.T
			err = stiffFrom(st.T)
		}
	}
	if err != nil {
		return r, err
	}
	if derivCalls != r.stats.Evals || jac.calls != r.stats.JacEvals {
		return r, fmt.Errorf("wrapped calls %d/%d disagree with ode.Stats %d/%d",
			derivCalls, jac.calls, r.stats.Evals, r.stats.JacEvals)
	}
	r.fillDur = jac.dur
	r.final = append([]float64(nil), y...)
	return r, nil
}

// odeTraced is the traced ode-solve phase. It times kernel.NewStructure and
// Bind per network, solves each kind once with sim.Run, then drives every
// kind through the ode package in rounds (at least two, so the exact counts
// are seen to repeat) and splits each solve's time into layers.
func (e *env) odeTraced(ctx context.Context, budget time.Duration, rep report, t *tally, lt *layerTable) {
	deadline := time.Now().Add(budget)
	kinds := e.solveKinds()
	nets := map[string]*crn.Network{}
	rates := map[string]sim.Rates{}
	for _, kd := range kinds {
		nets[kd.net], rates[kd.net] = kd.n, kd.cfg.Rates
	}
	for _, name := range odeNets {
		var structMS, bindMS []float64
		for i := 0; i < 5; i++ {
			var s *kernel.Structure
			structMS = append(structMS, ms(timed(func() { s = kernel.NewStructure(nets[name]) })))
			bindMS = append(bindMS, ms(timed(func() { s.Bind(rates[name].Of) })))
		}
		rep["kernel.structure_ms."+name] = median(structMS)
		rep["kernel.bind_ms."+name] = median(bindMS)
	}

	refRun := newSolveRun(kinds)
	refRun.slice(ctx, e.clients, 0) // one sim.Run per kind: the finals to match
	ref := refRun.out
	e.checkSolves(kinds, ref, t)

	var rounds [][]driveResult
	for len(rounds) < 2 || time.Now().Add(roundEstimate(rounds)).Before(deadline) {
		round := make([]driveResult, len(kinds))
		for k, kd := range kinds {
			r, err := drive(ctx, kd)
			if err == nil && (len(ref[k].finals) == 0 || !sameBits(r.final, ref[k].finals[0])) {
				err = errors.New("traced drive final differs from sim.Run's")
			}
			if err == nil && len(rounds) > 0 && !sameCounts(r, rounds[0][k]) {
				err = errors.New("exact counts differ between two drives of the same solve")
			}
			t.record("drive."+kd.metric, err)
			round[k] = r
		}
		rounds = append(rounds, round)
	}

	med := func(k int, f func(driveResult) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, round := range rounds {
			xs[i] = f(round[k])
		}
		return median(xs)
	}
	var overhead float64
	for k, kd := range kinds {
		r := rounds[0][k] // counts are identical across rounds
		outer := med(k, func(r driveResult) float64 { return r.outer.Seconds() })
		wall := med(k, func(r driveResult) float64 { return r.wall.Seconds() })
		derivS := med(k, func(r driveResult) float64 { return r.derivDur.Seconds() })
		fillS := med(k, func(r driveResult) float64 { return r.fillDur.Seconds() })
		appendS := med(k, func(r driveResult) float64 { return r.appendDur.Seconds() })
		compileS := med(k, func(r driveResult) float64 { return r.compile.Seconds() })
		luSelf := wall - derivS - fillS - appendS
		overhead += outer - median(ref[k].walls)
		lt.add("kernel.compile", compileS)
		lt.add("kernel.deriv", derivS)
		lt.add("kernel.jac_fill", fillS)
		lt.add("ode.lu_self", luSelf)
		lt.add("trace.append", appendS)
		lt.wall += outer

		n := kd.net
		if kd.cfg.Solver == sim.SolverAuto {
			rep["ode.auto_switched."+n] = b2f(r.switched)
			rep["ode.auto_switch_t."+n] = r.switchT
			rep["ode.auto_evals."+n] = float64(r.stats.Evals)
			continue
		}
		st := r.stats
		attempts := float64(st.Accepted + st.Rejected)
		rep["kernel.deriv_us."+n] = derivS / float64(st.Evals) * 1e6
		rep["kernel.deriv_calls."+n] = float64(st.Evals)
		rep["kernel.jac_fill_us."+n] = fillS / float64(st.JacEvals) * 1e6
		rep["kernel.jac_fills."+n] = float64(st.JacEvals)
		rep["kernel.jac_density."+n] = float64(r.jacNNZ) / float64(r.dim*r.dim)
		rep["ode.lu_self_s."+n] = luSelf
		rep["ode.lu_share."+n] = luSelf / wall
		rep["ode.attempts."+n] = attempts
		rep["ode.factorizations."+n] = float64(st.Factorizations)
		rep["ode.factor_per_attempt."+n] = float64(st.Factorizations) / attempts
		rep["ode.reject_ratio."+n] = float64(st.Rejected) / attempts
	}
	rep["trace_overhead_s.ode-solve"] = overhead
}

// roundEstimate is the median duration of one traced round so far.
func roundEstimate(rounds [][]driveResult) time.Duration {
	var xs []float64
	for _, round := range rounds {
		var s time.Duration
		for _, r := range round {
			s += r.outer
		}
		xs = append(xs, s.Seconds())
	}
	if len(xs) == 0 {
		return 0
	}
	return time.Duration(median(xs) * float64(time.Second))
}

// sameCounts compares the exact counts of two drives of one solve.
func sameCounts(a, b driveResult) bool {
	return a.stats == b.stats && a.switched == b.switched &&
		math.Float64bits(a.switchT) == math.Float64bits(b.switchT) && a.jacNNZ == b.jacNNZ
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
