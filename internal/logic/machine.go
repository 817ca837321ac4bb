package logic

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Machine is an FSM compiled to a synchronous molecular circuit: one
// dual-rail register pair per state bit, one compute cascade of gate
// pairings per next-state expression, all driven by one molecular clock.
type Machine struct {
	Circuit *core.Circuit
	FSM     *FSM

	// Obs, when non-nil, receives instrumentation events from Run.
	Obs obs.Observer

	regs map[string]railRegs
}

type railRegs struct {
	T *core.Register
	F *core.Register
}

// compiler carries the per-compilation allocation state.
type compiler struct {
	c      *core.Circuit
	copies map[string][]string // rail species queues, keyed "bit/T", "bit/F"
	oneQ   []string            // queue of copies of the constant-one register
	nsig   int
}

// Options tunes FSM compilation.
type Options struct {
	// NoRestore disables per-bit signal restoration, leaving the raw gate
	// outputs wired straight into the registers. The machine still
	// computes correctly at first, but dual-rail crosstalk then
	// accumulates cycle over cycle — the ablation experiment E11
	// quantifies the decay. Production use should leave this false.
	NoRestore bool
}

// Compile synthesizes the FSM into a molecular circuit under the namespace
// with signal restoration enabled. The returned machine's circuit is
// finalized and ready to simulate.
func Compile(f *FSM, ns string) (*Machine, error) {
	return CompileOpt(f, ns, Options{})
}

// CompileOpt is Compile with explicit options.
func CompileOpt(f *FSM, ns string, opts Options) (*Machine, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	c := core.New(ns)
	m := &Machine{Circuit: c, FSM: f, regs: make(map[string]railRegs)}

	// Registers, one pair per bit, initialized to the FSM's start state.
	for _, name := range f.names {
		tInit, fInit := 0.0, 1.0
		if f.init[name] {
			tInit, fInit = 1.0, 0.0
		}
		rt, err := c.NewRegister(name+"T", tInit)
		if err != nil {
			return nil, err
		}
		rf, err := c.NewRegister(name+"F", fInit)
		if err != nil {
			return nil, err
		}
		m.regs[name] = railRegs{T: rt, F: rf}
	}

	// Simplified next-state expressions and their operand demand.
	next := make(map[string]Expr, len(f.next))
	uses := make(map[string]int)
	constUses := 0
	for name, e := range f.next {
		se := Simplify(e)
		next[name] = se
		for v, k := range Vars(se) {
			uses[v] += k
		}
		constUses += countConsts(se)
	}

	comp := &compiler{c: c, copies: make(map[string][]string)}

	// Fan each register's rails out into one copy per use, plus one extra
	// "carrier" copy pair per bit: the carrier holds the bit's conserved
	// one-unit mass and is steered onto the next value's rail during
	// restoration (see writeRestored), so the register's unit circulates
	// forever while gate outputs are used only as catalysts and discarded.
	carriers := make(map[string]railBit, len(f.names))
	for _, name := range f.names {
		k := uses[name]
		if !opts.NoRestore {
			k++ // one extra copy pair per bit: the carrier
		}
		regs := m.regs[name]
		var carrier railBit
		// A fixed rail order: the fan-out order sets the species and
		// reaction order of the network, so it must not vary by run.
		for _, rr := range []struct {
			rail string
			reg  *core.Register
		}{{"T", regs.T}, {"F", regs.F}} {
			rail, reg := rr.rail, rr.reg
			if k == 0 {
				continue // Finalize discards the unused rails
			}
			dsts := make([]string, k)
			for i := range dsts {
				sig, err := c.NewSignal(fmt.Sprintf("cp.%s%s.%d", name, rail, i))
				if err != nil {
					return nil, err
				}
				dsts[i] = sig
			}
			if err := c.Fanout(reg.Q, dsts...); err != nil {
				return nil, err
			}
			if opts.NoRestore {
				comp.copies[name+"/"+rail] = dsts
				continue
			}
			comp.copies[name+"/"+rail] = dsts[:k-1]
			if rail == "T" {
				carrier.t = dsts[k-1]
			} else {
				carrier.f = dsts[k-1]
			}
		}
		carriers[name] = carrier
	}

	// Constant-one register: recycles one unit forever and supplies a copy
	// per constant occurrence.
	if constUses > 0 {
		one, err := c.NewRegister("one", 1)
		if err != nil {
			return nil, err
		}
		dsts := make([]string, constUses, constUses+1)
		for i := range dsts {
			sig, err := c.NewSignal(fmt.Sprintf("cp.one.%d", i))
			if err != nil {
				return nil, err
			}
			dsts[i] = sig
		}
		comp.oneQ = dsts
		if err := c.Fanout(one.Q, append(dsts, one.NS)...); err != nil {
			return nil, err
		}
	}

	// Compile every next-state expression and write it back through
	// restoration.
	for _, name := range f.names {
		bit, err := comp.compile(next[name])
		if err != nil {
			return nil, fmt.Errorf("logic: bit %q: %w", name, err)
		}
		if opts.NoRestore {
			err = writeDirect(c, bit, m.regs[name])
		} else {
			err = writeRestored(c, bit, carriers[name], m.regs[name])
		}
		if err != nil {
			return nil, fmt.Errorf("logic: bit %q: %w", name, err)
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(f *FSM, ns string) *Machine {
	m, err := Compile(f, ns)
	if err != nil {
		panic(err)
	}
	return m
}

// writeRestored writes a computed bit into a register pair with signal
// restoration. The raw gate output rails first annihilate each other
// (removing the crosstalk residue from both rails and leaving the winner);
// the surviving output then acts as a catalyst steering the bit's one-unit
// carrier onto the winning rail's NS port. The spent gate output is drained
// on the slow timescale — slow so that the (fast, catalytic) steering always
// completes first. Without restoration, per-cycle crosstalk of the dual-rail
// gates accumulates and flips bits after a few dozen cycles.
func writeRestored(c *core.Circuit, out, carrier railBit, regs railRegs) error {
	if out.t != "" && out.f != "" {
		if err := c.Pair(out.t, out.f, nil); err != nil {
			return err
		}
	}
	for _, cr := range []string{carrier.t, carrier.f} {
		if out.t != "" {
			if err := c.Pair(cr, out.t, map[string]int{regs.T.NS: 1, out.t: 1}); err != nil {
				return err
			}
		}
		if out.f != "" {
			if err := c.Pair(cr, out.f, map[string]int{regs.F.NS: 1, out.f: 1}); err != nil {
				return err
			}
		}
	}
	if out.t != "" {
		if err := c.DrainSlow(out.t); err != nil {
			return err
		}
	}
	if out.f != "" {
		if err := c.DrainSlow(out.f); err != nil {
			return err
		}
	}
	return nil
}

// writeDirect wires raw gate output rails straight into the register's NS
// ports — the unrestored baseline used only for the E11 ablation.
func writeDirect(c *core.Circuit, out railBit, regs railRegs) error {
	if out.t != "" {
		if err := c.Gain(out.t, regs.T.NS, 1, 1); err != nil {
			return err
		}
	}
	if out.f != "" {
		if err := c.Gain(out.f, regs.F.NS, 1, 1); err != nil {
			return err
		}
	}
	return nil
}

func countConsts(e Expr) int {
	switch t := e.(type) {
	case constExpr:
		return 1
	case notExpr:
		return countConsts(t.e)
	case binExpr:
		return countConsts(t.a) + countConsts(t.b)
	default:
		return 0
	}
}

// railBit is a compiled expression: species carrying the T and F rails. An
// empty name is a permanently-zero rail (constants only; Simplify guarantees
// gates never see one).
type railBit struct{ t, f string }

func (comp *compiler) takeCopy(key string) (string, error) {
	q := comp.copies[key]
	if len(q) == 0 {
		return "", fmt.Errorf("internal: copy queue %q exhausted", key)
	}
	comp.copies[key] = q[1:]
	return q[0], nil
}

func (comp *compiler) takeOne() (string, error) {
	if len(comp.oneQ) == 0 {
		return "", fmt.Errorf("internal: constant copy queue exhausted")
	}
	v := comp.oneQ[0]
	comp.oneQ = comp.oneQ[1:]
	return v, nil
}

func (comp *compiler) newOut(kind string) (string, error) {
	comp.nsig++
	return comp.c.NewSignal(fmt.Sprintf("g%d.%s", comp.nsig, kind))
}

func (comp *compiler) compile(e Expr) (railBit, error) {
	switch t := e.(type) {
	case varExpr:
		tc, err := comp.takeCopy(string(t) + "/T")
		if err != nil {
			return railBit{}, err
		}
		fc, err := comp.takeCopy(string(t) + "/F")
		if err != nil {
			return railBit{}, err
		}
		return railBit{t: tc, f: fc}, nil
	case constExpr:
		one, err := comp.takeOne()
		if err != nil {
			return railBit{}, err
		}
		if bool(t) {
			return railBit{t: one}, nil
		}
		return railBit{f: one}, nil
	case notExpr:
		b, err := comp.compile(t.e)
		return railBit{t: b.f, f: b.t}, err
	case binExpr:
		a, err := comp.compile(t.a)
		if err != nil {
			return railBit{}, err
		}
		b, err := comp.compile(t.b)
		if err != nil {
			return railBit{}, err
		}
		if a.t == "" || a.f == "" || b.t == "" || b.f == "" {
			return railBit{}, fmt.Errorf("internal: gate operand with constant rail (expression not simplified?)")
		}
		ot, err := comp.newOut("T")
		if err != nil {
			return railBit{}, err
		}
		of, err := comp.newOut("F")
		if err != nil {
			return railBit{}, err
		}
		// Truth table: destination rail for each input rail pairing
		// (tt: both true, tf: a true b false, ...).
		var tt, tf, ft, ff string
		switch t.op {
		case opAnd:
			tt, tf, ft, ff = ot, of, of, of
		case opOr:
			tt, tf, ft, ff = ot, ot, ot, of
		default: // xor
			tt, tf, ft, ff = of, ot, ot, of
		}
		pairs := []struct {
			x, y, dst string
		}{
			{a.t, b.t, tt},
			{a.t, b.f, tf},
			{a.f, b.t, ft},
			{a.f, b.f, ff},
		}
		for _, p := range pairs {
			if err := comp.c.Pair(p.x, p.y, map[string]int{p.dst: 1}); err != nil {
				return railBit{}, err
			}
		}
		return railBit{t: ot, f: of}, nil
	default:
		return railBit{}, fmt.Errorf("logic: unknown expression type %T", e)
	}
}

// Run simulates the machine deterministically for the given horizon.
func (m *Machine) Run(rates sim.Rates, tEnd float64) (*trace.Trace, error) {
	return m.RunContext(context.Background(), rates, tEnd)
}

// RunContext is Run with cancellation: the context is threaded into the
// integrator, so a deadline or cancellation stops the machine mid-horizon.
func (m *Machine) RunContext(ctx context.Context, rates sim.Rates, tEnd float64) (*trace.Trace, error) {
	return sim.Run(ctx, m.Circuit.Net, sim.Config{Rates: rates, TEnd: tEnd, Obs: m.Obs})
}

// StatesPerCycle decodes the machine's state trajectory: element k is the
// bit assignment delivered to compute cycle k (element 0 is the initial
// state). A bit reads true when its T rail outweighs its F rail.
func (m *Machine) StatesPerCycle(tr *trace.Trace) ([]map[string]bool, error) {
	var states []map[string]bool
	for _, name := range m.FSM.names {
		regs := m.regs[name]
		vT, err := m.Circuit.RegisterPerCycle(tr, regs.T)
		if err != nil {
			return nil, err
		}
		vF, err := m.Circuit.RegisterPerCycle(tr, regs.F)
		if err != nil {
			return nil, err
		}
		ncy := len(vT)
		if len(vF) < ncy {
			ncy = len(vF)
		}
		for len(states) < ncy {
			states = append(states, make(map[string]bool, len(m.FSM.names)))
		}
		for k := 0; k < ncy; k++ {
			states[k][name] = vT[k] > vF[k]
		}
	}
	return states, nil
}

// StateUints is StatesPerCycle packed into integers (first declared bit is
// bit 0).
func (m *Machine) StateUints(tr *trace.Trace) ([]uint64, error) {
	states, err := m.StatesPerCycle(tr)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(states))
	for i, st := range states {
		out[i] = m.FSM.StateUint(st)
	}
	return out, nil
}

// RailMargin reports the worst-case decoding margin across all bits and
// cycles: the smallest |T−F| rail difference observed. A healthy machine
// keeps this near 1; values near 0 mean a bit was undecidable.
func (m *Machine) RailMargin(tr *trace.Trace) (float64, error) {
	worst := 1e300
	for _, name := range m.FSM.names {
		regs := m.regs[name]
		vT, err := m.Circuit.RegisterPerCycle(tr, regs.T)
		if err != nil {
			return 0, err
		}
		vF, err := m.Circuit.RegisterPerCycle(tr, regs.F)
		if err != nil {
			return 0, err
		}
		n := len(vT)
		if len(vF) < n {
			n = len(vF)
		}
		for k := 0; k < n; k++ {
			d := vT[k] - vF[k]
			if d < 0 {
				d = -d
			}
			if d < worst {
				worst = d
			}
		}
	}
	return worst, nil
}
