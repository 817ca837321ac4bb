package sim_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/crn"
	"repro/internal/dsd"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The auto solver's effort contract: on a stability-limited network auto
// hands off to the stiff integrator early enough to stay within
// autoEffortBound of a forced stiff run's derivative evaluations, and its
// finals agree with stiff's within 10×RelTol; on an accuracy-limited
// network it never hands off and is bit-identical to explicit. The counts
// are deterministic, so these tests gate the handoff without timing noise.

const (
	autoRelTol      = 1e-6 // ode.Options' default RelTol
	autoEffortBound = 1.25
)

// endCapture records the run's closing SimEnd event.
type endCapture struct {
	obs.Base
	end obs.SimEnd
}

func (c *endCapture) OnSimEnd(e obs.SimEnd) { c.end = e }

// runSolver runs n under solver s and returns the final state and the
// run's ODE statistics.
func runSolver(t *testing.T, n *crn.Network, s sim.Solver, fast, tEnd float64) ([]float64, obs.ODEStats) {
	t.Helper()
	capt := &endCapture{}
	tr, err := sim.Run(context.Background(), n, sim.Config{
		Method: sim.ODE, Solver: s, Rates: sim.Rates{Fast: fast, Slow: 1}, TEnd: tEnd, Obs: capt,
	})
	if err != nil {
		t.Fatalf("solver %v: %v", s, err)
	}
	return tr.Rows[len(tr.Rows)-1], capt.end.ODE
}

// checkAgree fails the test for every species on which got and ref differ
// by more than 10×RelTol·(1+|ref|).
func checkAgree(t *testing.T, n *crn.Network, got, ref []float64) {
	t.Helper()
	worst := 0.0
	for i := range ref {
		d := math.Abs(got[i]-ref[i]) / (1 + math.Abs(ref[i]))
		worst = math.Max(worst, d)
		if d > 10*autoRelTol {
			t.Errorf("species %s: auto %g vs stiff %g (relative %.2g)", n.SpeciesName(i), got[i], ref[i], d)
		}
	}
	t.Logf("largest per-species difference auto vs stiff: %.2g (relative)", worst)
}

// checkEffort requires a switched auto run within autoEffortBound of
// stiff's derivative evaluations.
func checkEffort(t *testing.T, auto, stiff obs.ODEStats) {
	t.Helper()
	t.Logf("auto: switched=%v at t=%g, %d evals; stiff: %d evals", auto.Switched, auto.SwitchT, auto.Evals, stiff.Evals)
	if !auto.Switched {
		t.Fatalf("auto never handed off to stiff: %+v", auto)
	}
	if float64(auto.Evals) > autoEffortBound*float64(stiff.Evals) {
		t.Errorf("auto used %d derivative evaluations, more than %g× stiff's %d",
			auto.Evals, autoEffortBound, stiff.Evals)
	}
}

// dsdChain compiles the one-stage asynchronous delay chain to DNA
// strand-displacement reactions at fast/slow = 20: fast enough that
// explicit DP5 is stability-limited over the whole run.
func dsdChain(t *testing.T) *crn.Network {
	t.Helper()
	ideal := crn.NewNetwork()
	ch, err := async.NewChain(ideal, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ideal.SetInit(ch.Input, 1); err != nil {
		t.Fatal(err)
	}
	n, _, err := dsd.Compile(ideal, dsd.Options{Rates: sim.Rates{Fast: 20, Slow: 1}, Cmax: 10, QmaxFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ring8 builds the clocked 8-register ring shifter carrying one token.
func ring8(t *testing.T) *crn.Network {
	t.Helper()
	const k = 8
	c := core.New("ring")
	regs := make([]*core.Register, k)
	for i := range regs {
		init := 0.0
		if i == 0 {
			init = 1
		}
		r, err := c.NewRegister(fmt.Sprintf("d%d", i), init)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = r
	}
	for i := range regs {
		if err := c.Gain(regs[i].Q, regs[(i+1)%k].NS, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c.Net
}

func TestAutoDSDChainSwitches(t *testing.T) {
	n := dsdChain(t)
	stiff, stiffStats := runSolver(t, n, sim.SolverStiff, 20, 200)
	auto, autoStats := runSolver(t, n, sim.SolverAuto, 20, 200)
	checkEffort(t, autoStats, stiffStats)
	checkAgree(t, n, auto, stiff)
}

func TestAutoRingStiffAgreement(t *testing.T) {
	n := ring8(t)
	stiff, stiffStats := runSolver(t, n, sim.SolverStiff, 30000, 10)
	auto, autoStats := runSolver(t, n, sim.SolverAuto, 30000, 10)
	checkEffort(t, autoStats, stiffStats)
	checkAgree(t, n, auto, stiff)
}

// TestAutoRingNonStiff pins the other side of the boundary: at fast ≤ 100
// the ring's explicit steps are accuracy-limited, so auto must never hand
// off and must reproduce explicit bit for bit, statistics included.
func TestAutoRingNonStiff(t *testing.T) {
	n := ring8(t)
	for _, fast := range []float64{30, 100} {
		expl, explStats := runSolver(t, n, sim.SolverExplicit, fast, 10)
		auto, autoStats := runSolver(t, n, sim.SolverAuto, fast, 10)
		if autoStats.Switched {
			t.Errorf("fast=%g: auto handed off at t=%g on an accuracy-limited run", fast, autoStats.SwitchT)
		}
		autoStats.Solver = explStats.Solver
		if autoStats != explStats {
			t.Errorf("fast=%g: auto stats %+v, explicit %+v", fast, autoStats, explStats)
		}
		for i := range expl {
			if math.Float64bits(auto[i]) != math.Float64bits(expl[i]) {
				t.Errorf("fast=%g species %s: auto %v, explicit %v", fast, n.SpeciesName(i), auto[i], expl[i])
			}
		}
	}
}
