package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef declares one reported metric. The table below is the single
// source of BENCHMARK.json (see manifest) and of the names a run prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	// Exact marks a count that must repeat exactly for one code and seed.
	Exact bool
}

// Phases of every run. Each workload runs all four, so every run reports
// every metric; the workload sets how many client goroutines drive them.
var phaseNames = []string{"ode-solve", "simulate", "sweep-local", "sweep-cluster"}

// odeNets are the three stiff-solve networks; autoNets the two auto solves.
var (
	odeNets  = []string{"ring", "dsdchain", "dsdmovavg2"}
	autoNets = []string{"ring", "dsdchain"}
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "stiff_ring_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stiff_dsdchain_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stiff_dsdmovavg2_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "auto_ring_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "auto_dsdchain_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cold_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hot_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hot_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sweep_points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "watched_points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cluster_points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer lists the traced run's metrics. It is built once from the
// per-network templates and the layer tables. README.md names the
// end-to-end metric each one should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string, exact bool) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Exact: exact})
	}
	for _, n := range odeNets {
		add("kernel.structure_ms."+n, "ms", "lower", false)
		add("kernel.bind_ms."+n, "ms", "lower", false)
		add("kernel.deriv_us."+n, "us", "lower", false)
		add("kernel.deriv_calls."+n, "count", "lower", true)
		add("kernel.jac_fill_us."+n, "us", "lower", false)
		add("kernel.jac_fills."+n, "count", "lower", true)
		add("kernel.jac_density."+n, "ratio", "lower", true)
		add("ode.lu_self_s."+n, "s", "lower", false)
		add("ode.lu_share."+n, "ratio", "lower", false)
		add("ode.attempts."+n, "count", "lower", true)
		add("ode.factorizations."+n, "count", "lower", true)
		add("ode.factor_per_attempt."+n, "ratio", "lower", true)
		add("ode.reject_ratio."+n, "ratio", "lower", true)
	}
	for _, n := range autoNets {
		add("ode.auto_switched."+n, "count", "higher", true)
		add("ode.auto_switch_t."+n, "t", "lower", true)
		add("ode.auto_evals."+n, "count", "lower", true)
	}
	add("crn.parse_us", "us", "lower", false)
	add("trace.append_us", "us", "lower", false)
	add("trace.rows", "count", "lower", true)
	add("server.sim_ms", "ms", "lower", false)
	add("server.overhead_ms", "ms", "lower", false)
	add("server.encode_us", "us", "lower", false)
	add("server.response_kb", "KiB", "lower", true)
	add("server.cache_hit_ratio", "ratio", "higher", false)
	add("ssa.ns_per_run", "ns", "lower", false)
	add("ssa.lane_occupancy", "ratio", "higher", true)
	add("ssa.lane_passes", "count", "lower", true)
	add("ssa.scalar_loops", "count", "lower", true)
	add("jobs.dispatch_ms", "ms", "lower", false)
	add("cluster.dispatch_ms", "ms", "lower", false)
	add("cluster.partitions", "count", "lower", true)
	add("cluster.retries", "count", "lower", false)
	for _, ph := range phaseNames {
		for _, l := range layerNames[ph] {
			add("share."+ph+"."+l, "ratio", "lower", false)
		}
		add("trace_overhead_s."+ph, "s", "lower", false)
	}
	return out
}

// layerNames are the rows of each phase's layer table, "other" last. Each
// row is a share of the phase's traced wall time.
var layerNames = map[string][]string{
	"ode-solve":     {"kernel.compile", "kernel.deriv", "kernel.jac_fill", "ode.lu_self", "trace.append", "other"},
	"simulate":      {"server.sim", "server.encode", "server.rest", "other"},
	"sweep-local":   {"ssa.compute", "jobs.dispatch", "other"},
	"sweep-cluster": {"ssa.compute", "cluster.dispatch", "other"},
}

// workloads are the benchmark's workloads, with why each was chosen.
var workloads = []struct{ Name, Why string }{
	{"serial", "one client goroutine: solves, requests and sweep jobs one at a time, so each layer is timed without contention from the benchmark's own traffic"},
	{"paired", "two client goroutines: two solves at once, cold and hot clients side by side, plain and watched jobs together, so a gain for one class that costs the other shows"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects the values a run measured, keyed by metric name.
type report map[string]float64

// finish checks that the report holds exactly the declared metrics and
// shapes the printed result.
func (r report) finish(defs []metricDef, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := r[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(r) != len(defs) {
		var extra []string
		for name := range r {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("undeclared metrics: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
