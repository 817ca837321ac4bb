package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// node is one in-process server on a loopback listener.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startNode(cfg server.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	n := &node{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.http.Serve(ln) }()
	return n, nil
}

// stop drains the server's background work, closes the listener and waits
// for Serve to return.
func (n *node) stop() {
	n.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.http.Shutdown(ctx); err != nil {
		n.http.Close()
	}
	<-n.done
}

// servers are the in-process deployment: a single node for /v1/simulate
// and local sweeps, and a coordinator with one worker joined over loopback.
type servers struct {
	local, coord, worker *node
	cancelJoin           context.CancelFunc
	joinDone             chan struct{}
}

// retainJobs caps the finished jobs each server keeps, in place of the
// default 256. Every finished job is fetched before the next one starts, so
// a few suffice. At 256, retained sweep jobs (about 0.2 MB each on a node,
// 0.6 MB on the coordinator) would make peak_heap_mb grow with the number
// of jobs the host's speed let a run finish, and a faster sweep would read
// as a heavier one.
const retainJobs = 8

func startServers() (*servers, error) {
	s := &servers{}
	var err error
	if s.local, err = startNode(server.Config{RetainJobs: retainJobs}); err != nil {
		return nil, err
	}
	if s.coord, err = startNode(server.Config{Cluster: &cluster.Options{}, RetainJobs: retainJobs}); err != nil {
		s.stop()
		return nil, err
	}
	if s.worker, err = startNode(server.Config{RetainJobs: retainJobs}); err != nil {
		s.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancelJoin, s.joinDone = cancel, make(chan struct{})
	go func() {
		defer close(s.joinDone)
		// Join fails only on an empty config; the wait below reports a
		// worker that never joined.
		_ = cluster.Join(ctx, cluster.JoinConfig{Coordinator: s.coord.url, Advertise: s.worker.url, ID: "w0"})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.coord.srv.Coordinator().AliveCount() == 0 {
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("worker did not join the coordinator within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

func (s *servers) stop() {
	if s.cancelJoin != nil {
		s.cancelJoin()
		<-s.joinDone
	}
	for _, n := range []*node{s.worker, s.coord, s.local} {
		if n != nil {
			n.stop()
		}
	}
}

// client issues the benchmark's HTTP calls.
var client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// httpResult is one response as the client saw it.
type httpResult struct {
	status      int
	body        []byte
	cache       string // X-Cache
	traceparent string
}

func do(ctx context.Context, method, url string, body []byte) (httpResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return httpResult{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResult{}, err
	}
	r := httpResult{status: resp.StatusCode, body: b,
		cache: resp.Header.Get("X-Cache"), traceparent: resp.Header.Get("traceparent")}
	if r.status/100 != 2 {
		return r, fmt.Errorf("%s %s: status %d: %s", method, url, r.status, strings.TrimSpace(string(b)))
	}
	return r, nil
}

// waitJobDone reads a job's SSE stream until its job_done frame and returns
// that frame's state.
func waitJobDone(ctx context.Context, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events for %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: job_done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			var ev struct {
				Data struct {
					State string `json:"state"`
				} `json:"data"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return "", fmt.Errorf("job_done frame: %w", err)
			}
			return ev.Data.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events for %s ended without job_done", id)
}

// tally counts operations and failed checks. Failures are logged with their
// cause, at most a few per operation class.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	logged    map[string]int
	log       io.Writer
}

func (t *tally) record(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.logged == nil {
		t.logged = map[string]int{}
	}
	if t.logged[op] < 3 {
		fmt.Fprintf(t.log, "perfbench: FAILED %s: %v\n", op, err)
	}
	t.logged[op]++
}
