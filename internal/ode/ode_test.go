package ode

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestExponentialDecay(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -2 * y[0] }
	y := []float64{1}
	st, err := Integrate(context.Background(), f, y, 0, 3, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-6)
	if math.Abs(y[0]-want) > 1e-6 {
		t.Fatalf("y(3) = %g, want %g (accepted %d steps)", y[0], want, st.Accepted)
	}
}

func TestHarmonicOscillator(t *testing.T) {
	// y'' = -y, integrated as a system; energy must be conserved to tolerance.
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	y := []float64{1, 0}
	if _, err := Integrate(context.Background(), f, y, 0, 20*math.Pi, Options{RelTol: 1e-9, AbsTol: 1e-12}, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-6 || math.Abs(y[1]) > 1e-6 {
		t.Fatalf("after 10 periods: y = %v, want [1 0]", y)
	}
}

func TestStiffLinearDecay(t *testing.T) {
	// Fast rate typical of the kfast=1000 regime used in the benchmarks.
	f := func(_ float64, y, dydt []float64) { dydt[0] = -1000 * y[0] }
	y := []float64{1}
	if _, err := Integrate(context.Background(), f, y, 0, 1, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if y[0] > 1e-8 {
		t.Fatalf("y(1) = %g, want ~0", y[0])
	}
}

func TestNonAutonomous(t *testing.T) {
	// y' = t  ->  y(t) = t^2/2.
	f := func(tt float64, _, dydt []float64) { dydt[0] = tt }
	y := []float64{0}
	if _, err := Integrate(context.Background(), f, y, 0, 4, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-8) > 1e-6 {
		t.Fatalf("y(4) = %g, want 8", y[0])
	}
}

func TestObserverStop(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	y := []float64{0}
	var lastT float64
	obs := func(tt float64, y []float64) (bool, bool) {
		lastT = tt
		return false, y[0] >= 1
	}
	if _, err := Integrate(context.Background(), f, y, 0, 100, Options{MaxStep: 0.25}, obs); err != nil {
		t.Fatal(err)
	}
	if lastT >= 100 || y[0] < 1 {
		t.Fatalf("stop ignored: t=%g y=%g", lastT, y[0])
	}
}

func TestObserverModification(t *testing.T) {
	// Decay with a mid-flight bolus injected by the observer.
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	y := []float64{1}
	injected := false
	obs := func(tt float64, y []float64) (bool, bool) {
		if tt >= 1 && !injected {
			injected = true
			y[0] += 5
			return true, false
		}
		return false, false
	}
	if _, err := Integrate(context.Background(), f, y, 0, 2, Options{MaxStep: 0.05}, obs); err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("observer never injected")
	}
	// Expected: exp(-2) + 5*exp(-(2-tinj)), tinj within one max step of 1.
	lo := math.Exp(-2) + 5*math.Exp(-1.0)
	hi := math.Exp(-2) + 5*math.Exp(-(2-1.05))
	if y[0] < lo*0.99 || y[0] > hi*1.01 {
		t.Fatalf("y(2) = %g, want in [%g, %g]", y[0], lo, hi)
	}
}

func TestNonNegativeProjection(t *testing.T) {
	// Strong linear decay overshoots slightly without projection at loose
	// tolerance; with projection the state stays >= 0 at every observed step.
	f := func(_ float64, y, dydt []float64) { dydt[0] = -50 * y[0] }
	y := []float64{1}
	minSeen := math.Inf(1)
	obs := func(_ float64, y []float64) (bool, bool) {
		if y[0] < minSeen {
			minSeen = y[0]
		}
		return false, false
	}
	if _, err := Integrate(context.Background(), f, y, 0, 2, Options{NonNegative: true, RelTol: 1e-3, AbsTol: 1e-6}, obs); err != nil {
		t.Fatal(err)
	}
	if minSeen < 0 {
		t.Fatalf("negative state observed: %g", minSeen)
	}
}

func TestMaxStepsError(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	y := []float64{0}
	_, err := Integrate(context.Background(), f, y, 0, 1, Options{MaxSteps: 3, MaxStep: 1e-6, InitStep: 1e-6}, nil)
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestBackwardTimeRejected(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	if _, err := Integrate(context.Background(), f, []float64{0}, 1, 0, Options{}, nil); err == nil {
		t.Fatal("backward integration accepted")
	}
}

func TestZeroSpan(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	y := []float64{7}
	st, err := Integrate(context.Background(), f, y, 2, 2, Options{}, nil)
	if err != nil || st.Accepted != 0 || y[0] != 7 {
		t.Fatalf("zero-span integrate: %v %+v %v", err, st, y)
	}
}

// Property: for random decay rates and horizons the adaptive solution matches
// the closed form.
func TestQuickLinearDecay(t *testing.T) {
	prop := func(kRaw, tRaw uint8) bool {
		k := 0.1 + float64(kRaw)/16    // 0.1 .. ~16
		tEnd := 0.1 + float64(tRaw)/64 // 0.1 .. ~4.1
		f := func(_ float64, y, dydt []float64) { dydt[0] = -k * y[0] }
		y := []float64{1}
		if _, err := Integrate(context.Background(), f, y, 0, tEnd, Options{}, nil); err != nil {
			return false
		}
		want := math.Exp(-k * tEnd)
		return math.Abs(y[0]-want) < 1e-5*(1+want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a random two-species exchange A ⇌ B the adaptive integrator
// matches the closed form, which relaxes to b/(a+b) at rate a+b.
func TestQuickAdaptiveVsClosedForm(t *testing.T) {
	prop := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw)/64 + 0.1
		b := float64(bRaw)/64 + 0.1
		f := func(_ float64, y, dydt []float64) {
			dydt[0] = -a*y[0] + b*y[1]
			dydt[1] = a*y[0] - b*y[1]
		}
		y := []float64{1, 0}
		if _, err := Integrate(context.Background(), f, y, 0, 2, Options{RelTol: 1e-8, AbsTol: 1e-11}, nil); err != nil {
			return false
		}
		eq := b / (a + b)
		want := eq + (1-eq)*math.Exp(-(a+b)*2)
		return math.Abs(y[0]-want) < 1e-6 && math.Abs(y[1]-(1-want)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrateCanceled checks the two cancellation paths: an already-dead
// context stops the integration at the first poll, and a deadline interrupts
// a long integration mid-flight. Both must surface the context error and the
// time reached.
func TestIntegrateCanceled(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Integrate(ctx, f, []float64{1}, 0, 10, Options{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "t=") {
		t.Fatalf("cancellation error carries no time-reached context: %v", err)
	}

	// A step cap far below the horizon forces millions of steps; the
	// deadline must cut them short long before MaxSteps is reached.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	y := []float64{1}
	_, err = Integrate(ctx, f, y, 0, 1e9, Options{MaxStep: 1e-3, InitStep: 1e-3}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestStiffDetectAccuracyLimited runs a high-frequency linear oscillator at
// a tight tolerance: every step is sized by accuracy (hλ ≈ hω well inside
// DP5's stability region), so the stiffness test must never fire, and a
// run with it must equal a run without it bit for bit, Stats included.
func TestStiffDetectAccuracyLimited(t *testing.T) {
	const omega = 1000.0
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = omega * y[1]
		dydt[1] = -omega * y[0]
	}
	run := func(detect bool) ([]float64, Stats) {
		y := []float64{1, 0}
		st, err := Integrate(context.Background(), f, y, 0, 1, Options{RelTol: 1e-8, AbsTol: 1e-10, StiffDetect: detect}, nil)
		if err != nil {
			t.Fatalf("StiffDetect=%v: %v", detect, err)
		}
		return y, st
	}
	yOff, stOff := run(false)
	yOn, stOn := run(true)
	if stOn != stOff {
		t.Fatalf("Stats with detection %+v, without %+v", stOn, stOff)
	}
	for i := range yOff {
		if math.Float64bits(yOn[i]) != math.Float64bits(yOff[i]) {
			t.Fatalf("y[%d] with detection %v, without %v", i, yOn[i], yOff[i])
		}
	}
	if math.Abs(yOff[0]-math.Cos(omega)) > 1e-5 {
		t.Fatalf("y0(1) = %g, want cos(%g) = %g", yOff[0], omega, math.Cos(omega))
	}
}

// TestStiffDetectProtheroRobinson runs the Prothero–Robinson problem
// y' = λ(y − g) + g', g = sin t, λ = −1e4, from one unit off the smooth
// solution. Once the e^{λt} transient has died out, accuracy would allow
// steps of order 0.1, but DP5 stays stable only while h|λ| ≲ 3.3: every
// step is stability-limited, and the test must hand off within a few
// stiffSteps of accepted steps.
func TestStiffDetectProtheroRobinson(t *testing.T) {
	const lambda = -1e4
	f := func(tt float64, y, dydt []float64) {
		dydt[0] = lambda*(y[0]-math.Sin(tt)) + math.Cos(tt)
	}
	transient := 25 / -lambda // e^{λt} below 1e-10
	inTransient := 0
	cb := func(tt float64, _ []float64) (bool, bool) {
		if tt <= transient {
			inTransient++
		}
		return false, false
	}
	y := []float64{1}
	st, err := Integrate(context.Background(), f, y, 0, 10, Options{StiffDetect: true}, cb)
	if !errors.Is(err, ErrStiff) {
		t.Fatalf("err = %v after %d accepted steps, want ErrStiff", err, st.Accepted)
	}
	past := st.Accepted - inTransient
	t.Logf("ErrStiff at t=%g: %d accepted steps, %d past the transient", st.T, st.Accepted, past)
	if past > 2*stiffSteps {
		t.Fatalf("handoff %d accepted steps past the transient, want ≤ %d", past, 2*stiffSteps)
	}
	if math.Abs(y[0]-math.Sin(st.T)) > 1e-5 {
		t.Fatalf("y(%g) = %g at the handoff, want sin(t) = %g", st.T, y[0], math.Sin(st.T))
	}
}
