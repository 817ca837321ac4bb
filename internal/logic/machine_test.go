package logic

import (
	"testing"

	"repro/internal/sim"
)

var fastRates = sim.Rates{Fast: 300, Slow: 1}

// runMachine compiles and simulates an FSM and returns decoded states.
func runMachine(t *testing.T, f *FSM, tEnd float64) (*Machine, []uint64) {
	t.Helper()
	m, err := Compile(f, "m")
	if err != nil {
		t.Fatal(err)
	}
	if disc := m.Circuit.Discarded(); len(disc) > len(f.names)*2 {
		t.Fatalf("suspicious discards: %v", disc)
	}
	tr, err := m.Run(fastRates, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	states, err := m.StateUints(tr)
	if err != nil {
		t.Fatal(err)
	}
	margin, err := m.RailMargin(tr)
	if err != nil {
		t.Fatal(err)
	}
	if margin < 0.5 {
		t.Fatalf("rail margin %.3f, want > 0.5", margin)
	}
	return m, states
}

// checkAgainstGolden verifies the molecular trajectory equals the FSM's.
func checkAgainstGolden(t *testing.T, f *FSM, states []uint64, minCycles int) {
	t.Helper()
	if len(states) < minCycles {
		t.Fatalf("only %d cycles decoded, want >= %d", len(states), minCycles)
	}
	st := f.InitState()
	for k, got := range states {
		want := f.StateUint(st)
		if got != want {
			t.Fatalf("cycle %d: state %04b, want %04b (all: %v)", k, got, want, states)
		}
		st = f.Step(st)
	}
}

func TestToggleBit(t *testing.T) {
	// The smallest sequential machine: one bit alternating 0,1,0,1...
	f := NewFSM()
	if err := f.AddBit("a", false, Not(Var("a"))); err != nil {
		t.Fatal(err)
	}
	_, states := runMachine(t, f, 300)
	checkAgainstGolden(t, f, states, 5)
}

func TestShiftChain(t *testing.T) {
	// b follows a one cycle later; a toggles.
	f := NewFSM()
	if err := f.AddBit("a", true, Not(Var("a"))); err != nil {
		t.Fatal(err)
	}
	if err := f.AddBit("b", false, Var("a")); err != nil {
		t.Fatal(err)
	}
	_, states := runMachine(t, f, 300)
	checkAgainstGolden(t, f, states, 5)
}

func TestConstantNextState(t *testing.T) {
	// One bit latches to 1 and stays (next = true).
	f := NewFSM()
	if err := f.AddBit("a", false, True); err != nil {
		t.Fatal(err)
	}
	if err := f.AddBit("b", true, False); err != nil {
		t.Fatal(err)
	}
	_, states := runMachine(t, f, 300)
	checkAgainstGolden(t, f, states, 4)
}

func TestAndGateMachine(t *testing.T) {
	// o' = a AND b where a, b recirculate; exercises a two-input gate with
	// fanout (a and b each feed their own recycle plus the gate).
	for _, init := range []struct{ a, b bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
		f := NewFSM()
		if err := f.AddBit("a", init.a, Var("a")); err != nil {
			t.Fatal(err)
		}
		if err := f.AddBit("b", init.b, Var("b")); err != nil {
			t.Fatal(err)
		}
		if err := f.AddBit("o", false, And(Var("a"), Var("b"))); err != nil {
			t.Fatal(err)
		}
		_, states := runMachine(t, f, 200)
		checkAgainstGolden(t, f, states, 3)
	}
}

func TestXorGateMachine(t *testing.T) {
	f := NewFSM()
	if err := f.AddBit("a", true, Var("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.AddBit("b", false, Not(Var("b"))); err != nil {
		t.Fatal(err)
	}
	if err := f.AddBit("o", false, Xor(Var("a"), Var("b"))); err != nil {
		t.Fatal(err)
	}
	_, states := runMachine(t, f, 300)
	checkAgainstGolden(t, f, states, 5)
}

func TestThreeBitCounterMachine(t *testing.T) {
	// The DAC paper's sequential example class: a binary counter counting
	// 0..7 and wrapping, entirely in molecules.
	f, err := Counter(3)
	if err != nil {
		t.Fatal(err)
	}
	_, states := runMachine(t, f, 420)
	checkAgainstGolden(t, f, states, 10)
}

func TestFourBitLFSRMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	f, err := LFSR(4, []int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	_, states := runMachine(t, f, 420)
	checkAgainstGolden(t, f, states, 10)
}

// TestCompileDeterministic pins that one FSM always compiles to one network:
// species and reaction order decide a fixed-seed SSA trajectory, so a
// compile that varies by run makes seeded experiments irreproducible.
func TestCompileDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		f, err := Counter(2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Compile(f, "m")
		if err != nil {
			t.Fatal(err)
		}
		text := m.Circuit.Net.String()
		if i == 0 {
			first = text
		} else if text != first {
			t.Fatalf("compile %d produced a different network than compile 0", i)
		}
	}
}

func TestCompileRejectsInvalidFSM(t *testing.T) {
	f := NewFSM()
	if err := f.AddBit("a", false, Var("ghost")); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(f, "m"); err == nil {
		t.Fatal("invalid FSM compiled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	f := NewFSM()
	if err := f.AddBit("a", false, Var("ghost")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile on invalid FSM did not panic")
		}
	}()
	MustCompile(f, "m")
}

func TestNoRestoreStillComputesShortRuns(t *testing.T) {
	// The ablation backend: without restoration the machine is correct for
	// the first several cycles (errors accumulate only gradually).
	f := NewFSM()
	if err := f.AddBit("a", false, Not(Var("a"))); err != nil {
		t.Fatal(err)
	}
	m, err := CompileOpt(f, "m", Options{NoRestore: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Run(fastRates, 200)
	if err != nil {
		t.Fatal(err)
	}
	states, err := m.StateUints(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkStates := states
	if len(checkStates) > 4 {
		checkStates = checkStates[:4]
	}
	for k, got := range checkStates {
		if want := uint64(k % 2); got != want {
			t.Fatalf("cycle %d = %d, want %d", k, got, want)
		}
	}
}
