#!/bin/sh
# Repository gate: static checks plus the full test suite under the race
# detector (the obs registry tests exercise concurrent metric writes). The
# FSM-machine tests multiply badly under -race, hence the generous timeout.
set -eux
cd "$(dirname "$0")/.."
go vet ./...

# The old sequential entry points (the per-method Run wrappers) are gone:
# single runs go through the context-aware sim.Run, multi-run workloads
# through sim.RunMany. Nothing — tests and the sim package included — may
# reintroduce them.
if grep -rnE '\bRun(ODE|SSA|TauLeap)\(' internal/ cmd/ examples/ \
    --include='*.go'; then
  echo 'check.sh: removed per-method Run wrapper referenced (use sim.Run / sim.RunMany)' >&2
  exit 1
fi

# The batch engine, the HTTP server and the span tracer are the repo's
# concurrency hot spots: run them twice under the race detector before
# everything else so scheduling-order bugs surface fast. The kernel package
# joins them doubled because every simulator backend now leans on its
# compiled networks and Fenwick index — a latent bug there corrupts all
# three methods at once.
go test -race -count=2 -timeout 10m ./internal/sim/kernel/
# The Rosenbrock integrator owns mutable factor/workspace buffers reused
# across steps; doubled -race guards the stiff path the same way (its tests
# include the Jacobian-vs-finite-difference property sweep).
go test -race -count=2 -timeout 10m ./internal/ode/
# The SoA ensemble engine and its sim-layer front (RunMany) move lanes of
# shared state under worker pools; doubled -race over the block engine and
# the RunMany/bit-identity tests guards the lane bookkeeping.
go test -race -count=2 -timeout 10m ./internal/sim/ensemble/
go test -race -count=2 -timeout 15m -run 'Ensemble|RunMany' ./internal/sim/
go test -race -count=2 -timeout 10m ./internal/batch/
go test -race -count=2 -timeout 10m ./internal/server/
# The cluster coordinator moves one job's chunk pool between a scheduling
# loop, per-dispatch goroutines and heartbeat-driven membership expiry;
# doubled -race covers the work-stealing and retry interleavings.
go test -race -count=2 -timeout 10m ./internal/cluster/
go test -race -count=2 -timeout 10m ./internal/obs/span/
# The proc collector mixes an on-demand Sample path with a background ticker
# writing the same registry handles; doubled -race shakes out ordering bugs.
go test -race -count=2 -timeout 10m ./internal/obs/proc/
# The time-series store is written by a ticker goroutine and read by alert
# evaluation, the query endpoints and the statusz sparklines at once; the
# alert engine and flight recorder layer their own tickers and broker
# subscriptions on top. Doubled -race over all three.
go test -race -count=2 -timeout 10m ./internal/obs/tsdb/
go test -race -count=2 -timeout 10m ./internal/obs/alert/
go test -race -count=2 -timeout 10m ./internal/obs/flight/

# SSE end-to-end smoke: the live-streaming and tracing tests drive a real
# HTTP server, so scheduling races between publisher, broker and subscriber
# only show up here.
go test -race -timeout 10m -run 'SSE|Stream|Events|Tracez' ./internal/server/

# Debug-surface smoke: statusz and pprof against live listeners — the
# daemon-level end-to-end test binds both the API and the -debug-addr
# listener and asserts resource attribution lands in /metrics.
go test -race -timeout 10m -run 'Statusz|DebugHandler' ./internal/server/
go test -race -timeout 10m -run 'EndToEnd|Debug' ./cmd/crnserved/

# Cluster end-to-end smoke: a coordinator plus two real worker daemons on
# loopback run a sweep whose merged results must equal the single-node run
# byte for byte (TestClusterEndToEnd), and the golden topology matrix in the
# server package re-proves the contract with an injected worker death.
go test -race -timeout 10m -run 'TestClusterEndToEnd' ./cmd/crnserved/
go test -race -timeout 10m -run 'TestClusterGolden' ./internal/server/
# Loadgen smoke: the traffic generator against an in-process server.
go test -race -timeout 10m ./cmd/loadgen/

# Alert rules validate offline: the built-in defaults, a good file, and a
# bad file that must be rejected nonzero — the same subcommand deployments
# gate a rules push on.
go build -o /tmp/crnserved-check ./cmd/crnserved/
/tmp/crnserved-check -check-rules
RULES_TMP="$(mktemp -d)"
printf '{"rules":[{"name":"smoke","kind":"threshold","metric":"jobs_queued","op":">","value":5}]}' \
    > "$RULES_TMP/good.json"
/tmp/crnserved-check -check-rules -rules "$RULES_TMP/good.json"
printf '{"rules":[{"name":"smoke","op":"~","value":5}]}' > "$RULES_TMP/bad.json"
if /tmp/crnserved-check -check-rules -rules "$RULES_TMP/bad.json"; then
  echo 'check.sh: -check-rules accepted an invalid rules file' >&2
  exit 1
fi
rm -rf "$RULES_TMP" /tmp/crnserved-check

# Flight-recorder smoke: worker death mid-sweep must produce the firing
# worker-absent alert over SSE and a capsule holding the heartbeat series
# and the retry span tree — the whole observability chain in one test.
go test -race -timeout 10m -run 'TestWorkerDeathAlertAndFlightCapsule' ./internal/server/

# Benchmark smoke: one iteration of every benchmark. Catches bit-rot in the
# benchmark code (and in the scripts/bench.sh regression set) without paying
# full measurement time; real numbers come from scripts/bench.sh.
go test -run=NONE -bench=. -benchtime=1x -timeout 20m .
go test -run=NONE -bench=. -benchtime=1x -timeout 10m ./internal/sim/kernel/
# Ensemble bench smoke: one iteration of the multi-run engine benchmarks the
# BENCH_PR7.json gate is computed from, so the gate set itself cannot rot.
go test -run=NONE -bench 'EnsembleRing|SSARingSweepPerRun' -benchtime=1x -timeout 10m .
# Stiff-solver bench smoke: one iteration of the BENCH_PR10.json gate set
# (explicit vs stiff vs auto on the 458-reaction ring at fast/slow = 30000).
go test -run=NONE -bench 'ODERing' -benchtime=1x -timeout 10m .
# Benchmark self-test: minimal traced and untraced runs of both perfbench
# workloads. It fails when a stiff final drifts from the movavg2 reference,
# when auto and stiff disagree on the ring, or when the printed metric names
# no longer match BENCHMARK.json. Same environment perfbench/run.sh sets: no
# toolchain download, no module proxy, no workspace.
(cd perfbench && GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
    go test -timeout 20m .)

# The rate-law, derivative and Jacobian hot paths raise concentrations by
# binary exponentiation (kernel.PowInt); a math.Pow call creeping into the
# kernel package would silently cost ~6x per general-law evaluation.
# (Comments may mention it; an actual call site always has the paren.)
if grep -rn 'math\.Pow(' internal/sim/kernel/ --include='*.go' \
    --exclude='*_test.go'; then
  echo 'check.sh: math.Pow call on a kernel hot path (use PowInt)' >&2
  exit 1
fi

go test -race -timeout 45m ./...
