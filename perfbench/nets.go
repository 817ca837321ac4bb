package main

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/crn"
	"repro/internal/dsd"
	"repro/internal/phases"
	"repro/internal/sfg"
	"repro/internal/sim"
	"repro/internal/synth"
)

// The networks every phase draws on. Their sizes are the ones the stiff
// path has to choose dense or sparse LU across: 73, 144 and 448 species.
const (
	ringK       = 8     // clocked ring length for the ODE solves and sweeps
	ringFast    = 30000 // fast/slow of the stiff ring: the stability-limited regime
	ringTEnd    = 10
	dsdFast     = 20 // E9's moderate rates keep the DSD networks integrable
	dsdQmax     = 5  // E9's QmaxFactor
	chainCmax   = 10 // E9 quick-mode fuel excess of the delay chain
	chainTEnd   = 200
	movavgCmax  = 100 // E9's movavg2 fuel excess
	movavgTEnd  = 20
	simRingK    = 4 // the smaller ring /v1/simulate bodies carry
	sweepRingK  = 8
	sweepTEnd   = 10
	sweepUnit   = 50
	sweepRuns   = 32
	clockTEnd   = 20
	clockFast   = 300
	ssaClockU   = 100
	ssaRingRuns = 16
)

// sweepRatios are the fast/slow ratios of every sweep job: 3 × 32 runs = 96
// points, one kernel Bind per ratio.
var sweepRatios = []float64{100, 300, 1000}

// nets holds the built networks and the text forms the HTTP clients send.
type nets struct {
	ring     *crn.Network // k=8 clocked ring, 73 species, 458 reactions
	ringRegs []*core.Register
	chain    *crn.Network // DSD delay chain, 144 species
	movavg2  *crn.Network // DSD movavg2, 448 species

	clockText string // standalone clock
	ring4Text string // 4-register ring
	ring8Text string // the sweep network
}

// buildNets builds every network the benchmark uses, including both
// dsd.Compile calls. It is part of setup_s.
func buildNets() (*nets, error) {
	n := &nets{}
	var err error
	if n.ring, n.ringRegs, err = buildRing(ringK); err != nil {
		return nil, err
	}

	ideal := crn.NewNetwork()
	ch, err := async.NewChain(ideal, "d", 1)
	if err != nil {
		return nil, err
	}
	if err := ideal.SetInit(ch.Input, 1); err != nil {
		return nil, err
	}
	dsdRates := sim.Rates{Fast: dsdFast, Slow: 1}
	if n.chain, _, err = dsd.Compile(ideal, dsd.Options{Rates: dsdRates, Cmax: chainCmax, QmaxFactor: dsdQmax}); err != nil {
		return nil, err
	}

	g, err := sfg.MovingAverage(2)
	if err != nil {
		return nil, err
	}
	cp, err := synth.Compile(g, "f")
	if err != nil {
		return nil, err
	}
	if n.movavg2, _, err = dsd.Compile(cp.Circuit.Net, dsd.Options{Rates: dsdRates, Cmax: movavgCmax, QmaxFactor: dsdQmax}); err != nil {
		return nil, err
	}

	clk := crn.NewNetwork()
	s := phases.NewScheme(clk, "ph")
	if _, err := clock.Add(s, "clk", 1); err != nil {
		return nil, err
	}
	if err := s.Build(); err != nil {
		return nil, err
	}
	n.clockText = clk.String()
	r4, _, err := buildRing(simRingK)
	if err != nil {
		return nil, err
	}
	n.ring4Text = r4.String()
	r8, _, err := buildRing(sweepRingK)
	if err != nil {
		return nil, err
	}
	n.ring8Text = r8.String()
	return n, nil
}

// buildRing builds a clocked k-register ring shifter carrying one token,
// the circuit class of the paper's synchronous designs.
func buildRing(k int) (*crn.Network, []*core.Register, error) {
	c := core.New("ring")
	regs := make([]*core.Register, k)
	for i := range regs {
		init := 0.0
		if i == 0 {
			init = 1
		}
		r, err := c.NewRegister(fmt.Sprintf("d%d", i), init)
		if err != nil {
			return nil, nil, err
		}
		regs[i] = r
	}
	for i := range regs {
		if err := c.Gain(regs[i].Q, regs[(i+1)%k].NS, 1, 1); err != nil {
			return nil, nil, err
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, nil, err
	}
	return c.Net, regs, nil
}

// registerMass decodes the ring's state: the token mass each register
// holds across its four stages.
func registerMass(net *crn.Network, regs []*core.Register, y []float64) []float64 {
	out := make([]float64, len(regs))
	for i, r := range regs {
		for _, name := range []string{r.NS, r.G, r.B, r.Q} {
			if j, ok := net.SpeciesIndex(name); ok {
				out[i] += y[j]
			}
		}
	}
	return out
}

// tokenPosition is the register holding the most token mass.
func tokenPosition(net *crn.Network, regs []*core.Register, y []float64) int {
	m := registerMass(net, regs, y)
	pos := 0
	for i := range m {
		if m[i] > m[pos] {
			pos = i
		}
	}
	return pos
}
