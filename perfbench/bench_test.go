package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/movavg2_final.json from a stiff solve")

// TestMovavg2Reference pins the stored movavg2 reference: a stiff solve
// must match it within 10×RelTol. With -update it records the reference.
func TestMovavg2Reference(t *testing.T) {
	n, err := buildNets()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{nets: n}
	var kd solveKind
	for _, k := range e.solveKinds() {
		if k.net == "dsdmovavg2" && k.cfg.Solver == sim.SolverStiff {
			kd = k
		}
	}
	tr, err := sim.Run(context.Background(), kd.n, kd.cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := tr.Rows[len(tr.Rows)-1]
	if *update {
		m := map[string]float64{}
		for i, name := range tr.Names {
			m[name] = final[i]
		}
		b, err := json.MarshalIndent(m, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/movavg2_final.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		movavg2RefJSON = b
	}
	ref, err := movavg2Ref(kd.n)
	if err != nil {
		t.Fatal(err)
	}
	if !withinTol(final, ref) {
		t.Fatal("stiff movavg2 final does not match the stored reference")
	}
}

// TestManifest checks that BENCHMARK.json is the manifest the metric
// tables render, so the names a run prints match the file.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

// manifestNames returns the end-to-end and per-layer names BENCHMARK.json
// lists.
func manifestNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, d := range m.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range m.PerLayer {
		layers = append(layers, d.Name)
	}
	return e2e, layers
}

// minimalRun runs one workload for the shortest time the phases allow: one
// round of solves, one cold request, one job per class.
func minimalRun(t *testing.T, o options) result {
	t.Helper()
	o.seconds = 0.01
	var log strings.Builder
	res, err := run(context.Background(), o, &log)
	if err != nil {
		t.Fatalf("%+v: %v\n%s", o, err, log.String())
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%+v: %d of %d operations failed\n%s", o, res.Failed, res.Attempted, log.String())
	}
	return res
}

func sortedKeys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSelf makes a minimal-length run of each workload, traced and not,
// checks the printed names against BENCHMARK.json, and checks that every
// exact count repeats between two traced runs of one seed.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal runs take about two minutes")
	}
	e2e, layers := manifestNames(t)
	sort.Strings(e2e)
	sort.Strings(layers)
	traced := map[string]result{}
	for _, wl := range []string{"serial", "paired"} {
		for _, tr := range []bool{false, true} {
			res := minimalRun(t, options{workload: wl, seed: 7, trace: tr})
			want := e2e
			if tr {
				want = layers
				traced[wl] = res
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v printed %v, BENCHMARK.json lists %v", wl, tr, got, want)
			}
		}
	}

	again := minimalRun(t, options{workload: "serial", seed: 7, trace: true})
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		a, b := traced["serial"].Metrics[d.Name].Value, again.Metrics[d.Name].Value
		if a != b {
			t.Errorf("exact count %s differs between two runs of seed 7: %v vs %v", d.Name, a, b)
		}
	}
}

// TestCorruptFinalCounted proves the checks fire: after one round of the
// phase's solves, one stiff ring final is corrupted, and the checks must
// count a failure.
func TestCorruptFinalCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("a round of solves takes several seconds")
	}
	n, err := buildNets()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{nets: n, clients: 1, log: io.Discard}
	r := newSolveRun(e.solveKinds())
	r.slice(context.Background(), 1, 0)
	clean := tally{log: io.Discard}
	e.checkSolves(r.kinds, r.out, &clean)
	if clean.failed != 0 {
		t.Fatalf("%d of %d checks failed before corruption", clean.failed, clean.attempted)
	}
	r.out[0].finals[0][0] += 1
	bad := tally{log: io.Discard}
	e.checkSolves(r.kinds, r.out, &bad)
	if bad.failed < 1 {
		t.Errorf("a corrupted final was not counted: %d of %d failed", bad.failed, bad.attempted)
	}
}

// TestHotSurvivesEviction sends more cold bodies than the response cache
// holds, which evicts the hot set, then runs a serial simulate slice: its
// hot requests must still all be cache hits.
func TestHotSurvivesEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("filling the cache takes a few seconds")
	}
	ctx := context.Background()
	e := &env{seed: 3, clients: 1, log: io.Discard}
	if _, err := e.setupOnce(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.srv.stop()
	for i := 0; i < 130; i++ {
		if _, err := do(ctx, "POST", e.srv.local.url+"/v1/simulate", e.gen.next().raw); err != nil {
			t.Fatal(err)
		}
	}
	r := &simRun{}
	r.slice(ctx, e, 0, false)
	tl := tally{log: io.Discard}
	checkHot(r, &tl)
	if tl.failed != 0 || len(r.hot) == 0 {
		t.Fatalf("%d of %d hot checks failed after the cache was filled", tl.failed, tl.attempted)
	}
}
