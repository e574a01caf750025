#!/bin/sh
# bench.sh — run the solver hot-path benchmark suite and record the numbers
# in BENCH_solver.json at the repo root.
#
# Usage: scripts/bench.sh [label]
#
# The label defaults to the current git short hash. Each invocation appends
# one run (ns/op, B/op, allocs/op per benchmark) to the "runs" array, so the
# committed file accumulates a tracked history of before/after measurements;
# regressions show up as a diff. Delete the file to start a fresh history.
#
# Covered benchmarks:
#   internal/linalg      GEMM / GEMMReLU / GEMMScalarRef  (the NT kernel on
#                        dense A and on A with 45% zeros, the share of ReLU
#                        outputs that did not fire in MOGD's hidden layers,
#                        vs the reference triple loop) / GEMMOut  (the DNN
#                        output layer's one-column forward and one-inner
#                        backward at 8 and 32 rows)
#   internal/model/dnn   Predict / ValueGrad / PredictVar (4×128) /
#                        PredictVar2x64 (MC dropout at the server's shape) /
#                        ValueGradBatch (the split batched pass MOGD runs:
#                        ForwardBatch, Grad, Done) / ValueGradScalarLoop /
#                        Fit (a fresh net trained at the server's shape:
#                        12→64→64→1, 60 samples, 200 epochs, batch 32)
#   internal/model/gp    GPFit  (a GP trained at the server's shape: 60
#                        traces × 12 knobs, the default 80 MLE steps)
#   internal/problem     EvaluatorMemoHit[Telemetry] / EvaluatorMemoMiss /
#                        EvaluatorValueGrad[Telemetry] / EvalBatch (par.For
#                        runs it on up to GOMAXPROCS goroutines; -cpu 1 gives
#                        the serial reference) / CompositeEval /
#                        CompositeValueGrad (the stage-wise pipeline
#                        evaluation seam)
#                        (the *Telemetry variants run with the full metrics
#                        registry + tracer attached at default sampling; the
#                        diff against their plain twins is the telemetry
#                        overhead, expected ~1% time and 0 extra allocs)
#   internal/space       Lookup / LookupLinearRef / Get  (name->index map vs
#                        the old linear scan under the Get hot path)
#   internal/spark       CoresValueGrad  (the exact cores objective's value
#                        and numeric gradient over the 12-knob batch space:
#                        25 decodes, as MOGD runs it per start per step)
#   internal/telemetry   SpanStartEnd / SpanStartEndOff  (span open+End on
#                        the solve hot path; must stay 0 allocs/op) /
#                        TracerEvents  (one run's events read from a full
#                        ring, as every /optimize reads them twice)
#   internal/metrics     ClipToBox/16, /1000  (the quality measures' point
#                        normalization and dedup, at a served frontier's size
#                        and a large one)
#   internal/solver/mogd MOGDSolve / MOGDSolveBatch
#   internal/moo/ws, nc  WSRun / NCRun  (baseline inner loops, a fresh
#                        evaluator per run)
#   internal/core        SequentialCold / ParallelCold  (PF-AS / PF-AP on a
#                        fresh solver and evaluator per iteration over the
#                        server's objective shape, DNN latency + the exact
#                        cores objective: the cold solve of a new job)
#   internal/serving     ServingCacheHit / ServingCacheInsert /
#                        CoalescedDispatch  (the serving cache's steady-state
#                        lease path, eviction churn, and singleflight dispatch)
#   internal/runlog      RegistryAppend  (recording one served answer in the
#                        run registry: quality block, index, and the hand-off
#                        to the journal's writer — every cache hit pays it)
#   internal/calib       CalibWindowAdd / CalibLedgerAppend  (the rolling
#                        calibration window update — 0 allocs steady-state —
#                        and the /observe ledger append, which must leave JSON
#                        encoding and the disk write off the caller's path)
set -eu

cd "$(dirname "$0")/.."
OUT=BENCH_solver.json
LABEL="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'GEMM' -benchmem -benchtime 1s ./internal/linalg/ >>"$RAW"
go test -run '^$' -bench 'Predict|ValueGrad|Fit' -benchmem -benchtime 1s ./internal/model/dnn/ >>"$RAW"
go test -run '^$' -bench 'GPFit' -benchmem -benchtime 1s ./internal/model/gp/ >>"$RAW"
go test -run '^$' -bench 'Evaluator|EvalBatch|Composite' -benchmem -benchtime 1s ./internal/problem/ >>"$RAW"
go test -run '^$' -bench 'Lookup|Get' -benchmem -benchtime 1s ./internal/space/ >>"$RAW"
go test -run '^$' -bench 'CoresValueGrad' -benchmem -benchtime 1s ./internal/spark/ >>"$RAW"
go test -run '^$' -bench 'Span|TracerEvents' -benchmem -benchtime 1s ./internal/telemetry/ >>"$RAW"
go test -run '^$' -bench 'ClipToBox' -benchmem -benchtime 1s ./internal/metrics/ >>"$RAW"
go test -run '^$' -bench 'MOGD' -benchmem -benchtime 1s ./internal/solver/mogd/ >>"$RAW"
go test -run '^$' -bench 'WSRun|NCRun' -benchmem -benchtime 1s ./internal/moo/ws/ ./internal/moo/nc/ >>"$RAW"
go test -run '^$' -bench 'Cold' -benchmem -benchtime 1s ./internal/core/ >>"$RAW"
go test -run '^$' -bench 'Serving|Coalesced' -benchmem -benchtime 1s ./internal/serving/ >>"$RAW"
go test -run '^$' -bench 'RegistryAppend' -benchmem -benchtime 1s ./internal/runlog/ >>"$RAW"
go test -run '^$' -bench 'Calib' -benchmem -benchtime 1s ./internal/calib/ >>"$RAW"

CPU=$(awk -F': ' '/^cpu:/ {print $2; exit}' "$RAW")

# Benchmark lines look like:
#   BenchmarkPredict  34866  34635 ns/op  0 B/op  0 allocs/op
RUN=$(awk -v label="$LABEL" -v cpu="$CPU" -v gover="$(go version | awk '{print $3}')" '
BEGIN { printf "    {\n      \"label\": \"%s\",\n      \"cpu\": \"%s\",\n      \"go\": \"%s\",\n      \"benchmarks\": {\n", label, cpu, gover }
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
    name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    if (n++) printf ",\n"
    printf "        \"%s\": {\"pkg\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", name, pkg, $3, $5, $7
}
END { printf "\n      }\n    }" }' "$RAW")

if [ -f "$OUT" ]; then
    # Append to the runs array of the existing (self-generated) file: drop the
    # closing "  ]\n}" and splice the new run in.
    TMP=$(mktemp)
    head -n -2 "$OUT" | sed '$ s/$/,/' >"$TMP"
    printf '%s\n  ]\n}\n' "$RUN" >>"$TMP"
    mv "$TMP" "$OUT"
else
    printf '{\n  "schema": "udao-bench/v1",\n  "runs": [\n%s\n  ]\n}\n' "$RUN" >"$OUT"
fi

echo "recorded run \"$LABEL\" in $OUT"
