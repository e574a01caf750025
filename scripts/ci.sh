#!/bin/sh
# ci.sh — the repo's verification gate. Run before every commit.
#
#   1. gofmt lint (no unformatted files)
#   2. go vet + full build
#   3. race-detector pass over the concurrent hot paths (the GEMM kernels,
#      par.For, the one parallel loop that both solvers' SolveBatch and the
#      evaluator's EvalBatch run on, solver incl. the batched MOGD
#      multi-start path, models, core, the problem-layer evaluator, the
#      composite space and recommendation
#      layers), the model server, whose one lock every concurrent /optimize
#      trains under, and the trace store it reads, the cross-method
#      conformance suite incl. the composite-space suites, the four
#      baselines, which run on the evaluator their caller hands them (NSGA-II
#      evaluates each cohort through that evaluator's EvalBatch), and the
#      observability layer (telemetry registry + spans, run registry,
#      calibration ledger, HTTP service incl. the bounded serving cache and
#      the /observe loop, watchdog)
#   4. full test suite; the frontier digests and the split-expand test
#      again at GOMAXPROCS 1, 2 and 4, since PF-AP's probes fan out over up
#      to GOMAXPROCS goroutines and the solver contract is the same bits at
#      every count; then go vet and the tests of servbench/, a module of
#      its own that go test ./... does not reach: they fail when code that
#      servbench restates changes (TestRestatedSourceUnchanged) or an
#      internal API it imports moves
#   5. benchmark smoke: one iteration of the MOGD benchmarks, of the cold
#      Progressive Frontier benchmarks and of the cores objective's numeric
#      gradient, so a broken benchmark harness fails CI instead of the next
#      perf investigation, and one run of udao-bench's Fig. 4(a) experiment
#      over DNN models (PF-AP, PF-AS, WS and NC), the one command that has no
#      test of its own
#   6. fuzz smoke: 10s of FuzzJournalReopen over the durable journal's crash
#      repair (the run registry, calibration ledger and alert log), 10s of
#      FuzzLabelValue over the metric series label round trip the watchdog's
#      per-workload rules read, 10s of FuzzClipToBox, the quality
#      measures' point dedup against its reference, degenerate boxes
#      included, 10s of FuzzCompositeRoundTrip over a stage-wise space's
#      Decode/Round/Gather round trips, 10s of FuzzGemm, both GEMM
#      kernels against the reference triple loop on shapes and zero
#      patterns of A the fuzzer picks, and 10s of FuzzGPFit, GP training
#      against its per-call-exps reference, by bits, on small inputs with
#      duplicated rows and constant targets
set -eu

cd "$(dirname "$0")/.."

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./internal/linalg/... ./internal/par/... ./internal/solver/... ./internal/model/... ./internal/modelserver/... ./internal/trace/... ./internal/core/... ./internal/moo/... ./internal/problem/... ./internal/space/... ./internal/recommend/... ./internal/conformance/... ./internal/telemetry/... ./internal/runlog/... ./internal/calib/... ./internal/watch/... ./internal/serving/... ./internal/service/...
go test ./...
go test -run 'TestFrontierDigest|TestExpandSplitsMatchOneExpand' -cpu 1,2,4 .
(cd servbench && go vet . && go test .)
go test -run '^$' -bench MOGD -benchtime 1x ./internal/solver/mogd/
go test -run '^$' -bench Cold -benchtime 1x ./internal/core/
go test -run '^$' -bench CoresValueGrad -benchtime 1x ./internal/spark/
go run ./cmd/udao-bench -expt fig4a -model dnn -seed 3 >/dev/null
go test -run '^$' -fuzz FuzzJournalReopen -fuzztime 10s ./internal/runlog/
go test -run '^$' -fuzz FuzzLabelValue -fuzztime 10s ./internal/telemetry/
go test -run '^$' -fuzz FuzzClipToBox -fuzztime 10s ./internal/metrics/
go test -run '^$' -fuzz FuzzCompositeRoundTrip -fuzztime 10s ./internal/space/
go test -run '^$' -fuzz FuzzGemm -fuzztime 10s ./internal/linalg/
go test -run '^$' -fuzz FuzzGPFit -fuzztime 10s ./internal/model/gp/

echo "ci: all gates passed"
