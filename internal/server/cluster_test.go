package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// coordinatorWith builds a coordinator server plus n worker nodes on real
// loopback listeners, already joined. The heartbeat timeout is an hour so
// membership never flaps on test timing — worker death is injected as
// connection failure, the same signal a crashed process produces.
func coordinatorWith(t *testing.T, n int, workerCfg Config, opts cluster.Options) (*Server, []*httptest.Server) {
	t.Helper()
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = 20 * time.Millisecond // fast rescheduling ticker
	}
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = time.Hour
	}
	coord := New(Config{Cluster: &opts})
	var workers []*httptest.Server
	for i := 0; i < n; i++ {
		ws := httptest.NewServer(New(workerCfg).Handler())
		t.Cleanup(ws.Close)
		coord.Coordinator().Join(cluster.JoinRequest{ID: fmt.Sprintf("w%d", i), Addr: ws.URL})
		workers = append(workers, ws)
	}
	return coord, workers
}

// submitAndWait runs one job to a terminal state through a server's handler.
func submitAndWait(t *testing.T, s *Server, req JobRequest) JobStatus {
	t.Helper()
	rec := do(t, s.Handler(), "POST", "/v1/jobs", req)
	if rec.Code != 202 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	return pollJob(t, s.Handler(), decode[JobStatus](t, rec).ID)
}

// submitWatchingProgress runs one job to a terminal state while subscribed
// to the server's event broker, and requires exactly one job_progress event
// per point, each carrying its point index, a distinct done count and the
// total — the same payload whichever topology ran the sweep.
func submitWatchingProgress(t *testing.T, s *Server, req JobRequest) JobStatus {
	t.Helper()
	sub := s.broker.Subscribe(0, func(ev obs.StreamEvent) bool { return ev.Kind == "job_progress" })
	defer sub.Close()
	st := submitAndWait(t, s, req)
	// Every job_progress event is published before the job goes terminal.
	indexes, dones := map[int]bool{}, map[int]bool{}
	for len(sub.C) > 0 {
		ev := <-sub.C
		if ev.Job != st.ID {
			continue
		}
		index, okIndex := ev.Data["index"].(int)
		done, okDone := ev.Data["done"].(int)
		total, okTotal := ev.Data["total"].(int)
		if !okIndex || !okDone || !okTotal || total != st.Total ||
			index < 0 || index >= total || done < 1 || done > total {
			t.Fatalf("job_progress payload %v for a %d-point job", ev.Data, st.Total)
		}
		if indexes[index] || dones[done] {
			t.Fatalf("repeated job_progress index %d or done %d", index, done)
		}
		indexes[index], dones[done] = true, true
	}
	if len(indexes) != st.Total || sub.Dropped() != 0 {
		t.Fatalf("%d job_progress events (%d dropped) for %d points", len(indexes), sub.Dropped(), st.Total)
	}
	return st
}

// TestClusterGoldenBitIdentical is the acceptance proof of the deterministic
// sharding contract: the same sweep executed single-node, on a 1-worker
// cluster, on a 3-worker cluster, and on a 3-worker cluster where one worker
// dies after its first partition, produces byte-identical results and the
// same one-event-per-point job_progress stream.
func TestClusterGoldenBitIdentical(t *testing.T) {
	req := JobRequest{
		CRN: clockText(t), TEnd: 60, Fast: 300, Slow: 1,
		Method: "ssa", Seed: 42, Runs: 4, Ratios: []float64{100, 300, 600},
	} // 12 points with a live ratio axis: the fast rate genuinely differs per ratio

	single := submitWatchingProgress(t, New(Config{}), req)
	if single.State != "done" {
		t.Fatalf("single-node job ended %q: %s", single.State, single.Error)
	}
	golden, err := json.Marshal(single.Results)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			coord, _ := coordinatorWith(t, n, Config{}, cluster.Options{})
			st := submitWatchingProgress(t, coord, req)
			if st.State != "done" || st.Completed != single.Completed || st.Failed != single.Failed {
				t.Fatalf("cluster job: state=%q completed=%d failed=%d, single-node: %q/%d/%d",
					st.State, st.Completed, st.Failed, single.State, single.Completed, single.Failed)
			}
			got, _ := json.Marshal(st.Results)
			if string(got) != string(golden) {
				t.Fatalf("merged results differ from single-node execution\n got: %s\nwant: %s", got, golden)
			}
			// Worker telemetry folded into the coordinator registry under node labels.
			found := false
			for name := range coord.Registry().Snapshot() {
				if strings.Contains(name, `node="w0"`) {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("no node-labelled worker metrics merged into the coordinator registry")
			}
		})
	}

	t.Run("workers=3/one-dies", func(t *testing.T) {
		coord, _ := coordinatorWith(t, 2, Config{}, cluster.Options{})
		// A third worker that serves exactly one partition, then fails every
		// further dispatch — a node crashing mid-job, as the coordinator's
		// HTTP client sees it.
		dying := New(Config{})
		var served atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/v1/partition" && served.Add(1) > 1 {
				http.Error(w, "worker died", http.StatusInternalServerError)
				return
			}
			dying.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		coord.Coordinator().Join(cluster.JoinRequest{ID: "w2-dying", Addr: srv.URL})

		st := submitWatchingProgress(t, coord, req)
		if st.State != "done" {
			t.Fatalf("job with dying worker ended %q: %s", st.State, st.Error)
		}
		got, _ := json.Marshal(st.Results)
		if string(got) != string(golden) {
			t.Fatalf("results after worker death differ from single-node execution\n got: %s\nwant: %s", got, golden)
		}
		snap := coord.Registry().Snapshot()
		if snap["cluster_partition_retries_total"] == 0 {
			t.Fatal("worker death caused no recorded partition retries")
		}
	})
}

// TestClusterCoordinatorDrain: draining the coordinator while partitions are
// in flight force-cancels the job cleanly — terminal state, no goroutine left
// waiting on a worker.
func TestClusterCoordinatorDrain(t *testing.T) {
	// The worker stalls each partition 200ms (the scale-model delay knob), so
	// the job is reliably mid-flight when the drain begins.
	coord, _ := coordinatorWith(t, 1, Config{PartitionDelay: 200 * time.Millisecond}, cluster.Options{})
	rec := do(t, coord.Handler(), "POST", "/v1/jobs", quickJob())
	if rec.Code != 202 {
		t.Fatalf("submit status %d", rec.Code)
	}
	id := decode[JobStatus](t, rec).ID

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if forced := coord.Drain(ctx); forced != 1 {
		t.Fatalf("Drain forced %d jobs, want 1", forced)
	}
	st := pollJob(t, coord.Handler(), id)
	if st.State != "canceled" {
		t.Fatalf("state %q after coordinator drain, want canceled", st.State)
	}
}

// TestJobCanceledWhileQueued is the regression test for the queued-job
// lifecycle: a job canceled before its first point ever starts must still
// reach a terminal state, keep its skip markers (not failures), release the
// jobs_queued gauge, and be retention-evicted like any finished job.
func TestJobCanceledWhileQueued(t *testing.T) {
	s := New(Config{MaxConcurrentSims: 1, Workers: 1, RetainJobs: 1})

	// Occupy the only simulation slot so the next job stays queued.
	rec := do(t, s.Handler(), "POST", "/v1/jobs", longJob(t))
	blocker := decode[JobStatus](t, rec).ID
	waitState(t, s, blocker, "running")

	rec = do(t, s.Handler(), "POST", "/v1/jobs", quickJob())
	if rec.Code != 202 {
		t.Fatalf("submit status %d", rec.Code)
	}
	queued := decode[JobStatus](t, rec)
	if queued.State != "queued" {
		t.Fatalf("second job admitted as %q, want queued", queued.State)
	}
	if m := metricsText(t, s); !strings.Contains(m, "jobs_queued 1") {
		t.Fatalf("/metrics while queued lacks jobs_queued 1:\n%s", m)
	}

	if rec := do(t, s.Handler(), "DELETE", "/v1/jobs/"+queued.ID, nil); rec.Code != 200 {
		t.Fatalf("cancel queued job: %d", rec.Code)
	}
	st := pollJob(t, s.Handler(), queued.ID)
	if st.State != "canceled" {
		t.Fatalf("canceled-while-queued job ended %q, want canceled", st.State)
	}
	if st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("queued job counted work: completed=%d failed=%d", st.Completed, st.Failed)
	}
	for _, r := range st.Results {
		if !strings.HasPrefix(r.Err, "skipped") {
			t.Fatalf("point %d of a never-started job: %q, want a skipped marker", r.Index, r.Err)
		}
	}
	if m := metricsText(t, s); !strings.Contains(m, "jobs_queued 0") {
		t.Fatalf("jobs_queued gauge not released:\n%s", m)
	}

	// Unblock the slot and push more finished jobs through; with RetainJobs 1
	// the canceled-while-queued job must age out of retention like any other
	// finished job (the regression left it unretired and unevictable).
	do(t, s.Handler(), "DELETE", "/v1/jobs/"+blocker, nil)
	submitAndWait(t, s, quickJob())
	submitAndWait(t, s, quickJob())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec := do(t, s.Handler(), "GET", "/v1/jobs/"+queued.ID, nil); rec.Code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled-while-queued job %s never retention-evicted", queued.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls one job until it reports the wanted live state.
func waitState(t *testing.T, s *Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(t, s.Handler(), "GET", "/v1/jobs/"+id, nil)
		if st := decode[JobStatus](t, rec); st.State == want {
			return
		} else if st.terminal() {
			t.Fatalf("job %s went terminal (%q) while waiting for %q", id, st.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q", id, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricsText fetches the Prometheus exposition.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(t, s.Handler(), "GET", "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestClusterMetricsExposition: the cluster metric families exist on a
// coordinator from construction (so dashboards can rely on them) and the
// worker-state gauges track membership.
func TestClusterMetricsExposition(t *testing.T) {
	coord, _ := coordinatorWith(t, 2, Config{}, cluster.Options{})
	m := metricsText(t, coord)
	for _, want := range []string{
		`cluster_workers{state="alive"} 2`,
		`cluster_workers{state="lost"} 0`,
		`cluster_workers{state="left"} 0`,
		"cluster_partition_retries_total 0",
		"cluster_partitions_dispatched_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q:\n%s", want, m)
		}
	}
	coord.Coordinator().Leave("w0")
	if m := metricsText(t, coord); !strings.Contains(m, `cluster_workers{state="left"} 1`) {
		t.Errorf("left gauge not updated:\n%s", m)
	}
}

// TestMetricsExpiresSilentWorkers is the regression test for stale
// cluster_workers gauges: membership expiry is lazy (evaluated on access),
// so on an idle coordinator a scrape used to keep reporting a long-dead
// worker as alive forever — nothing between scrapes ever touched the
// membership. /metrics must itself refresh membership before reading.
func TestMetricsExpiresSilentWorkers(t *testing.T) {
	coord := New(Config{Cluster: &cluster.Options{
		HeartbeatEvery:   5 * time.Millisecond,
		HeartbeatTimeout: 20 * time.Millisecond,
	}})
	coord.Coordinator().Join(cluster.JoinRequest{ID: "w0", Addr: "http://127.0.0.1:1"})
	if m := metricsText(t, coord); !strings.Contains(m, `cluster_workers{state="alive"} 1`) {
		t.Fatalf("joined worker not alive:\n%s", m)
	}

	// The worker never beats again. No job, no dashboard, no membership API
	// call — the next scrape is the only access, and it alone must observe
	// the expiry.
	time.Sleep(50 * time.Millisecond)
	m := metricsText(t, coord)
	if !strings.Contains(m, `cluster_workers{state="lost"} 1`) ||
		!strings.Contains(m, `cluster_workers{state="alive"} 0`) {
		t.Fatalf("scrape did not expire the silent worker:\n%s", m)
	}
}

// TestStatuszClusterPanel: the operator dashboard renders the worker table
// and partition map on a coordinator, and omits the panel entirely on a
// plain node.
func TestStatuszClusterPanel(t *testing.T) {
	plain := New(Config{})
	rec := do(t, plain.DebugHandler(), "GET", "/debug/statusz", nil)
	if rec.Code != 200 || strings.Contains(rec.Body.String(), "<h2>Cluster</h2>") {
		t.Fatalf("plain node statusz: code %d, cluster panel present=%v",
			rec.Code, strings.Contains(rec.Body.String(), "<h2>Cluster</h2>"))
	}

	coord, _ := coordinatorWith(t, 1, Config{}, cluster.Options{})
	body := do(t, coord.DebugHandler(), "GET", "/debug/statusz", nil).Body.String()
	if !strings.Contains(body, "<h2>Cluster</h2>") || !strings.Contains(body, "w0") {
		t.Fatalf("coordinator statusz lacks the cluster worker table:\n%s", body)
	}

	// With a sweep in flight the partition map appears; the worker's 200ms
	// stall keeps chunks visibly running.
	slow, _ := coordinatorWith(t, 1, Config{PartitionDelay: 200 * time.Millisecond}, cluster.Options{})
	rec = do(t, slow.Handler(), "POST", "/v1/jobs", quickJob())
	id := decode[JobStatus](t, rec).ID
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := do(t, slow.DebugHandler(), "GET", "/debug/statusz", nil).Body.String()
		if strings.Contains(body, "running") && strings.Contains(body, "[0,") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition map never rendered:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pollJob(t, slow.Handler(), id)
}

// TestPartitionValidation: /cluster/v1/partition validates its untrusted
// request with the same checks as job admission before executing a window,
// including a replicate count whose product with the ratio count overflows.
func TestPartitionValidation(t *testing.T) {
	s := New(Config{Limits: Limits{MaxSweepPoints: 4}})
	sweep := cluster.Sweep{CRN: "init X = 1\nX -> Y : slow", TEnd: 2, Method: "ssa", Seed: 3, Runs: 2, Ratios: []float64{2, 3}}
	overflow := sweep
	overflow.Runs = math.MaxInt/2 + 1 // runs × 2 ratios wraps negative
	below := sweep
	below.Ratios = []float64{0.5}
	cases := []struct {
		name   string
		req    cluster.PartitionRequest
		status int
		code   string
	}{
		{"ok", cluster.PartitionRequest{Lo: 1, Hi: 3, Sweep: sweep}, 200, ""},
		{"sweep overflows", cluster.PartitionRequest{Lo: 0, Hi: 1, Sweep: overflow}, 422, CodeLimitExceeded},
		{"ratio below one", cluster.PartitionRequest{Lo: 0, Hi: 1, Sweep: below}, 400, CodeInvalidRequest},
		{"bad window", cluster.PartitionRequest{Lo: 2, Hi: 5, Sweep: sweep}, 400, CodeInvalidRequest},
	}
	for _, c := range cases {
		rec := do(t, s.Handler(), "POST", "/cluster/v1/partition", c.req)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body.String())
			continue
		}
		if c.code != "" {
			if got := decode[errorBody](t, rec).Error.Code; got != c.code {
				t.Errorf("%s: code %q, want %q", c.name, got, c.code)
			}
			continue
		}
		outs := decode[cluster.PartitionResponse](t, rec).Outcomes
		if len(outs) != 2 || outs[0].Index != 1 || outs[1].Index != 2 || outs[0].Err != "" || len(outs[1].Final) != 2 {
			t.Errorf("%s: outcomes %+v, want points 1 and 2 with finals", c.name, outs)
		}
	}
}
