// Command perfbench is the repository's benchmark. One run builds the
// paper's networks, starts an in-process server, a coordinator and one
// worker on loopback, and drives four phases from at most two client
// goroutines: stiff and auto ODE solves (ode-solve), /v1/simulate traffic
// cache-cold and cache-hot (simulate), ring SSA sweep jobs on a single node
// (sweep-local) and through the coordinator (sweep-cluster). It checks every
// output and prints, as the last line, one JSON object with the end-to-end
// metrics (-trace 0) or the per-layer metrics of a separate traced run
// (-trace 1). See README.md.
//
//	bash perfbench/run.sh --workload serial --seed 1 --seconds 55 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runSeconds is how long one run measures, split across the phases by
// phaseShare. The ODE solves are the longest operations (up to ~2 s each
// on a 2-core host), so they get the largest share.
const runSeconds = 55

var phaseShare = map[string]float64{
	"ode-solve":     0.6,
	"simulate":      0.15,
	"sweep-local":   0.15,
	"sweep-cluster": 0.1,
}

// cycles is how many interleaved slices each phase of an untraced run is
// split into.
const cycles = 4

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// env is one run's state, shared by the phases.
type env struct {
	nets     *nets
	srv      *servers
	clients  int // client goroutines: 1 (serial) or 2 (paired)
	seed     int64
	gen      *bodyGen
	hot      []hotEntry
	jobSeeds []int64
	golden   map[int64][]byte
	log      io.Writer
}

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	var printManifest bool
	flag.StringVar(&o.workload, "workload", "", "workload: serial or paired")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if printManifest {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	o.trace = traceFlag == 1
	res, err := run(context.Background(), o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run performs one benchmark run and returns its result line.
func run(ctx context.Context, o options, log io.Writer) (result, error) {
	e := &env{seed: o.seed, log: log}
	switch o.workload {
	case "serial":
		e.clients = 1
	case "paired":
		e.clients = 2
	default:
		return result{}, fmt.Errorf("unknown workload %q (want serial or paired)", o.workload)
	}
	if !(o.seconds > 0) {
		return result{}, fmt.Errorf("seconds must be positive, got %g", o.seconds)
	}
	fmt.Fprintf(log, "perfbench: workload %s seed %d seconds %g trace %v (nproc %d, %s)\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.Version())

	setupS, err := e.setup(ctx)
	if err != nil {
		return result{}, err
	}
	defer e.srv.stop()
	if err := e.makeGoldens(ctx); err != nil {
		return result{}, err
	}

	rep := report{}
	t := &tally{log: log}
	e.fillCache(ctx, t)
	budget := func(phase string) time.Duration {
		return time.Duration(o.seconds * phaseShare[phase] * float64(time.Second))
	}
	if !o.trace {
		// The phases run in interleaved slices, so each metric samples the
		// whole run rather than one stretch of it: the host's speed drifts
		// by tens of percent over tens of seconds.
		heap := startHeapPeak()
		solves := newSolveRun(e.solveKinds())
		sims := &simRun{}
		local := &sweepRun{n: e.srv.local, mixed: true}
		cluster := &sweepRun{n: e.srv.coord}
		for c := 0; c < cycles; c++ {
			slice := func(phase string) time.Duration { return budget(phase) / cycles }
			solves.slice(ctx, e.clients, slice("ode-solve"))
			sims.slice(ctx, e, slice("simulate"), false)
			local.slice(ctx, e, slice("sweep-local"), false)
			cluster.slice(ctx, e, slice("sweep-cluster"), false)
		}
		rep["peak_heap_mb"] = float64(heap.stop()) / (1 << 20)
		e.finishSolves(solves, rep, t)
		e.finishSimulate(ctx, sims, rep, t)
		e.finishSweeps(local, cluster, rep, t)
		rep["setup_s"] = setupS
		return rep.finish(endToEnd, t.attempted, t.failed)
	}

	tables := map[string]*layerTable{}
	for _, ph := range phaseNames {
		tables[ph] = newLayerTable(ph)
	}
	e.odeTraced(ctx, budget("ode-solve"), rep, t, tables["ode-solve"])
	e.simulateTraced(ctx, budget("simulate"), rep, t, tables["simulate"])
	e.sweepTraced(ctx, budget("sweep-local"), false, rep, t, tables["sweep-local"])
	e.sweepTraced(ctx, budget("sweep-cluster"), true, rep, t, tables["sweep-cluster"])
	for _, ph := range phaseNames {
		t.record("layers."+ph, tables[ph].finish(rep, log))
	}
	return rep.finish(perLayer, t.attempted, t.failed)
}

// setup sets up setupRepeats times; it keeps the last set-up and returns
// the median duration. Stopping an earlier set-up is not timed.
func (e *env) setup(ctx context.Context) (float64, error) {
	var durs []float64
	for i := 0; i < setupRepeats; i++ {
		if e.srv != nil {
			e.srv.stop()
			e.srv = nil
		}
		d, err := e.setupOnce(ctx)
		if err != nil {
			return 0, err
		}
		durs = append(durs, d)
	}
	return median(durs), nil
}

// setupOnce builds the networks, starts the servers and warms the hot set,
// and returns how long that took in seconds.
func (e *env) setupOnce(ctx context.Context) (float64, error) {
	t0 := time.Now()
	n, err := buildNets()
	if err != nil {
		return 0, fmt.Errorf("build networks: %w", err)
	}
	srv, err := startServers()
	if err != nil {
		return 0, fmt.Errorf("start servers: %w", err)
	}
	e.nets, e.srv = n, srv
	e.gen = newBodyGen(e.seed, n)
	bodies := make([]simBody, hotSetSize)
	for j := range bodies {
		bodies[j] = e.gen.nextOf(hotCycle)
	}
	if e.hot, err = warmHot(ctx, srv.local.url, bodies); err != nil {
		srv.stop()
		e.srv = nil
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}
