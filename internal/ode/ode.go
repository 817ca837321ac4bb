// Package ode provides ordinary-differential-equation integrators: an
// adaptive Dormand–Prince 5(4) method (the workhorse for mass-action
// simulation in package sim) and a Rosenbrock-W method with a sparse LU for
// stiff systems. The package is generic — it knows nothing about chemistry.
package ode

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Func evaluates the derivative dy/dt at time t into dydt. Implementations
// must not retain y or dydt.
type Func func(t float64, y []float64, dydt []float64)

// Observer is called after every accepted step with the current time and
// state. The observer may modify y in place (e.g. to inject an input bolus);
// it must then return modified=true so the integrator refreshes its cached
// derivative. Returning stop=true ends integration early without error.
type Observer func(t float64, y []float64) (modified, stop bool)

// Options configures the adaptive integrator. Zero values select the
// documented defaults.
type Options struct {
	RelTol   float64 // relative tolerance, default 1e-6
	AbsTol   float64 // absolute tolerance, default 1e-9
	InitStep float64 // initial step size, default (t1-t0)/1e4
	MinStep  float64 // below this the integration fails, default (t1-t0)*1e-14
	MaxStep  float64 // cap on step size, default t1-t0
	MaxSteps int     // cap on accepted+rejected steps, default 50 million
	// NonNegative projects the state onto the non-negative orthant after
	// each accepted step. Mass-action kinetics is mathematically
	// non-negative, but roundoff can produce tiny negative excursions
	// that would feed back as negative rates; projection removes them.
	NonNegative bool
	// Obs receives step-level telemetry (accepted steps and error-control
	// rejections, with step size and error norm). Nil — the default —
	// disables instrumentation at the cost of one predictable branch per
	// step. The integrator emits only obs.Step events; run-level events
	// (SimStart/SimEnd) are the caller's responsibility.
	Obs obs.Observer
	// StiffDetect makes Integrate abandon the run with ErrStiff when the
	// error controller shows the signature of stiffness — at least
	// stiffRejects rejections inside a stiffWindow-step window while the
	// step size sits below span·stiffHFrac. On that return y0 holds the
	// state at the detection point and Stats.T the time reached, so the
	// caller can resume seamlessly with the stiff integrator. Pure
	// detection: when the heuristic never fires the integration is
	// unchanged.
	StiffDetect bool
}

func (o Options) withDefaults(span float64) Options {
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.InitStep <= 0 {
		o.InitStep = span / 1e4
	}
	if o.MaxStep <= 0 {
		o.MaxStep = span
	}
	if o.MinStep <= 0 {
		o.MinStep = span * 1e-14
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 50_000_000
	}
	return o
}

// ErrMinStep reports that the controller pushed the step size below MinStep,
// which usually means the problem is too stiff for an explicit method at the
// requested tolerance.
var ErrMinStep = errors.New("ode: step size underflow")

// ErrMaxSteps reports that MaxSteps was exhausted before reaching t1.
var ErrMaxSteps = errors.New("ode: step budget exhausted")

// ErrStiff reports that Options.StiffDetect recognised the problem as stiff
// for the explicit method. It is a handoff signal, not a failure: y0 and
// Stats.T carry the integration front so a stiff method can take over.
var ErrStiff = errors.New("ode: stiffness detected")

// Stiffness-detection heuristic (Options.StiffDetect): within each window
// of stiffWindow attempted steps, stiffRejects error-control rejections
// while h < span·stiffHFrac trigger ErrStiff. An explicit method on a stiff
// problem settles into stability-limited stepping — h pinned far below the
// span with the controller bouncing off the boundary — which is exactly
// this signature; a merely hard (but non-stiff) stretch rejects a few times
// and moves on without accumulating rejections at small h.
const (
	stiffWindow  = 64
	stiffRejects = 8
	stiffHFrac   = 1e-3
)

// ctxCheckEvery is how often (in accepted-plus-rejected steps) Integrate
// polls its context. 256 keeps the poll off the per-step hot path while still
// bounding the cancellation latency to a fraction of a millisecond for the
// mass-action systems in this repository (a step costs seven derivative
// evaluations).
const ctxCheckEvery = 256

// Dormand–Prince 5(4) coefficients.
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	// dpE = b5 - b4: error estimator weights.
	dpE = [7]float64{
		35.0/384 - 5179.0/57600,
		0,
		500.0/1113 - 7571.0/16695,
		125.0/192 - 393.0/640,
		-2187.0/6784 + 92097.0/339200,
		11.0/84 - 187.0/2100,
		-1.0 / 40,
	}
)

// Stats reports integration effort. The factorization counters stay zero on
// the explicit path; T is maintained by both integrators so error returns
// (ErrStiff, ErrMinStep, …) carry the integration front alongside the state
// left in y0.
type Stats struct {
	Accepted       int     // accepted steps
	Rejected       int     // rejected trial steps
	Evals          int     // derivative evaluations
	JacEvals       int     // analytic Jacobian refills (stiff path)
	Factorizations int     // LU factorizations of the shifted matrix (stiff path)
	Solves         int     // triangular backsolves (stiff path)
	T              float64 // time reached when the integrator returned
}

// Add accumulates other into st, keeping the larger T — the merge used when
// an auto-switching run hands off between integrators.
func (st *Stats) Add(other Stats) {
	st.Accepted += other.Accepted
	st.Rejected += other.Rejected
	st.Evals += other.Evals
	st.JacEvals += other.JacEvals
	st.Factorizations += other.Factorizations
	st.Solves += other.Solves
	if other.T > st.T {
		st.T = other.T
	}
}

// Integrate advances y0 from t0 to t1 with the adaptive Dormand–Prince 5(4)
// method, calling cb (if non-nil) after every accepted step. y0 is modified
// in place and holds the final state on return.
//
// The context is polled every ctxCheckEvery (256) steps; on cancellation the
// integration stops and returns ctx.Err() wrapped with the time reached, so
// long integrations can actually be interrupted by timeouts or Ctrl-C. A nil
// ctx behaves like context.Background().
func Integrate(ctx context.Context, f Func, y0 []float64, t0, t1 float64, opts Options, cb Observer) (Stats, error) {
	var st Stats
	st.T = t0
	if t1 < t0 {
		return st, fmt.Errorf("ode: t1 (%g) < t0 (%g)", t1, t0)
	}
	if t1 == t0 {
		return st, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.withDefaults(t1 - t0)

	n := len(y0)
	var k [7][]float64
	for i := range k {
		k[i] = make([]float64, n)
	}
	ytmp := make([]float64, n)
	ynew := make([]float64, n)

	t := t0
	h := math.Min(o.InitStep, o.MaxStep)
	f(t, y0, k[0])
	st.Evals++
	fsalValid := true
	// Stiffness-detection window counters (Options.StiffDetect).
	winSteps, winRejects := 0, 0

	for t < t1 {
		st.T = t
		if (st.Accepted+st.Rejected)%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return st, fmt.Errorf("ode: interrupted at t=%g of [%g,%g]: %w", t, t0, t1, err)
			}
		}
		if st.Accepted+st.Rejected >= o.MaxSteps {
			return st, fmt.Errorf("%w at t=%g (%d steps)", ErrMaxSteps, t, o.MaxSteps)
		}
		if h < o.MinStep {
			return st, fmt.Errorf("%w at t=%g (h=%g)", ErrMinStep, t, h)
		}
		if t+h > t1 {
			h = t1 - t
		}
		if !fsalValid {
			f(t, y0, k[0])
			st.Evals++
			fsalValid = true
		}
		// Stages 2..7.
		for s := 1; s < 7; s++ {
			for i := 0; i < n; i++ {
				acc := 0.0
				for j := 0; j < s; j++ {
					acc += dpA[s][j] * k[j][i]
				}
				ytmp[i] = y0[i] + h*acc
			}
			f(t+dpC[s]*h, ytmp, k[s])
			st.Evals++
		}
		// 5th-order solution is stage 7's ytmp (a7 row == b row); but the
		// last loop iteration left ytmp holding exactly that combination.
		copy(ynew, ytmp)

		// Error norm.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			e := 0.0
			for j := 0; j < 7; j++ {
				e += dpE[j] * k[j][i]
			}
			e *= h
			sc := o.AbsTol + o.RelTol*math.Max(math.Abs(y0[i]), math.Abs(ynew[i]))
			r := e / sc
			errNorm += r * r
		}
		errNorm = math.Sqrt(errNorm / float64(n))

		if errNorm <= 1 || h <= o.MinStep*1.01 {
			// Accept.
			st.Accepted++
			t += h
			if o.Obs != nil {
				o.Obs.OnStep(obs.Step{T: t, H: h, ErrNorm: errNorm, Accepted: true})
			}
			copy(y0, ynew)
			if o.NonNegative {
				for i := range y0 {
					if y0[i] < 0 {
						y0[i] = 0
					}
				}
			}
			// FSAL: k7 becomes next k1.
			k[0], k[6] = k[6], k[0]
			if cb != nil {
				modified, stop := cb(t, y0)
				if modified {
					fsalValid = false
				}
				if stop {
					st.T = t
					return st, nil
				}
			}
			if o.NonNegative {
				// Projection may have changed the state the cached
				// derivative was computed for; refresh lazily only when
				// a clamp actually occurred is not tracked, so keep the
				// FSAL derivative: projection moves y by amounts within
				// the error tolerance.
				_ = 0
			}
		} else {
			st.Rejected++
			if o.Obs != nil {
				o.Obs.OnStep(obs.Step{T: t, H: h, ErrNorm: errNorm, Accepted: false})
			}
			if o.StiffDetect && h < (t1-t0)*stiffHFrac {
				winRejects++
			}
		}
		if o.StiffDetect {
			winSteps++
			if winRejects >= stiffRejects {
				st.T = t
				return st, fmt.Errorf("%w at t=%g (h=%g, %d rejections in %d steps)",
					ErrStiff, t, h, winRejects, winSteps)
			}
			if winSteps >= stiffWindow {
				winSteps, winRejects = 0, 0
			}
		}
		// PI-free elementary controller.
		fac := 0.9 * math.Pow(errNorm, -0.2)
		if errNorm == 0 {
			fac = 5
		}
		fac = math.Max(0.2, math.Min(5, fac))
		h = math.Min(h*fac, o.MaxStep)
	}
	st.T = t
	return st, nil
}
