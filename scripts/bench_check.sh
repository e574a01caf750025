#!/bin/sh
# bench_check.sh — benchmark regression gate. Runs the tracked benchmark
# suite fresh and compares ns/op against the last recorded run in
# BENCH_solver.json (the history scripts/bench.sh maintains). Fails when any
# tracked benchmark regressed more than the tolerance (default 15%), or when
# an allocation-free baseline stopped being allocation-free.
#
# Usage: [BENCHTIME=100ms] scripts/bench_check.sh [tolerance-percent]
#
# BENCHTIME shortens the per-benchmark measurement window (default 1s) — CI
# uses a short mode; the tolerance should be widened to match the extra noise.
# Tracked benchmarks present in the fresh run but absent from the recorded
# baseline are reported informationally and never fail the gate: they are new
# benchmarks whose first scripts/bench.sh recording is still pending.
#
# The fresh numbers are NOT recorded — use scripts/bench.sh for that. CPU
# differences between the recording machine and this one can trip the gate;
# the failure message prints both sides so that is easy to spot.
set -eu

cd "$(dirname "$0")/.."
BASE=BENCH_solver.json
TOL="${1:-15}"
BENCHTIME="${BENCHTIME:-1s}"

if [ ! -f "$BASE" ]; then
    echo "bench_check: no $BASE baseline — run scripts/bench.sh first" >&2
    exit 1
fi

# Tracked benchmarks: the GEMM kernel on dense A (GEMM) and on A with the
# 45% zeros of MOGD's hidden-layer passes, which the kernel skips (GEMMReLU;
# informational until its first scripts/bench.sh recording), single-point
# DNN inference at 4×128 (Predict and ValueGrad: one-row passes through the
# kernels), the split batched DNN pass (ValueGradBatch: ForwardBatch, Grad,
# Done, as MOGD runs it), DNN training
# at the server's shape (Fit; informational until its first scripts/bench.sh
# recording), GP training at the server's shape (GPFit: 60 traces × 12
# knobs, 80 MLE steps; informational until its first scripts/bench.sh
# recording) and MC-dropout uncertainty (PredictVar at 4×128, and
# PredictVar2x64 at the server's shape, informational until recorded), the
# evaluator seam (scalar, matrix-batch, and the stage-wise composite eval —
# informational until its first scripts/bench.sh recording), the span
# open+End pair (must stay allocation-free), the tracer's read of one run
# from a full ring (every /optimize makes two; informational until its first
# scripts/bench.sh recording), the cores objective's numeric gradient over
# the batch space (CoresValueGrad: 25 decodes; informational until its first
# scripts/bench.sh recording), the MOGD solver hot path, the
# Progressive Frontier loops (SequentialCold/ParallelCold: PF-AS and PF-AP on
# a fresh solver every iteration), the serving cache's lease / insert /
# singleflight-dispatch paths, the run registry's append (every served
# answer, cache hits included, pays it; informational until its first
# scripts/bench.sh recording), and the calibration ledger's window update and
# append (the /observe hot path — the append must stay off the disk write).
TRACKED='GEMM GEMMReLU Predict ValueGrad ValueGradBatch Fit GPFit PredictVar PredictVar2x64 EvaluatorValueGrad EvaluatorValueGradTelemetry EvaluatorMemoHit EvalBatch CompositeEval SpanStartEnd TracerEvents CoresValueGrad MOGDSolve MOGDSolveBatch SequentialCold ParallelCold ServingCacheHit ServingCacheInsert CoalescedDispatch RegistryAppend CalibWindowAdd CalibLedgerAppend'

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'GEMM' -benchmem -benchtime "$BENCHTIME" ./internal/linalg/ >>"$RAW"
go test -run '^$' -bench 'Predict|ValueGrad$|ValueGradBatch|Fit' -benchmem -benchtime "$BENCHTIME" ./internal/model/dnn/ >>"$RAW"
go test -run '^$' -bench 'GPFit' -benchmem -benchtime "$BENCHTIME" ./internal/model/gp/ >>"$RAW"
go test -run '^$' -bench 'Evaluator|EvalBatch|Composite' -benchmem -benchtime "$BENCHTIME" ./internal/problem/ >>"$RAW"
go test -run '^$' -bench 'SpanStartEnd$|TracerEvents' -benchmem -benchtime "$BENCHTIME" ./internal/telemetry/ >>"$RAW"
go test -run '^$' -bench 'CoresValueGrad' -benchmem -benchtime "$BENCHTIME" ./internal/spark/ >>"$RAW"
go test -run '^$' -bench 'MOGD' -benchmem -benchtime "$BENCHTIME" ./internal/solver/mogd/ >>"$RAW"
go test -run '^$' -bench 'Cold' -benchmem -benchtime "$BENCHTIME" ./internal/core/ >>"$RAW"
go test -run '^$' -bench 'Serving|Coalesced' -benchmem -benchtime "$BENCHTIME" ./internal/serving/ >>"$RAW"
go test -run '^$' -bench 'RegistryAppend' -benchmem -benchtime "$BENCHTIME" ./internal/runlog/ >>"$RAW"
go test -run '^$' -bench 'Calib' -benchmem -benchtime "$BENCHTIME" ./internal/calib/ >>"$RAW"

# Baseline ns/op and allocs/op of benchmark $1, taken from the LAST run in
# BENCH_solver.json that contains it (the file is self-generated, one
# benchmark entry per line).
baseline() {
    awk -v name="\"$1\":" '
        index($0, name) { line = $0 }
        END {
            if (line == "") exit 1
            match(line, /"ns_op": [0-9]+/);     ns = substr(line, RSTART+9, RLENGTH-9)
            match(line, /"allocs_op": [0-9]+/); al = substr(line, RSTART+13, RLENGTH-13)
            print ns, al
        }' "$BASE"
}

# Fresh ns/op and allocs/op of benchmark $1. The benchmark name may or may
# not carry the -GOMAXPROCS suffix depending on the machine.
fresh() {
    awk -v plain="Benchmark$1" -v prefixed="Benchmark$1-" '
        $1 == plain || index($1, prefixed) == 1 { ns = $3; al = $7 }
        END {
            if (ns == "") exit 1
            printf "%d %d\n", ns, al
        }' "$RAW"
}

FAILED=0
for b in $TRACKED; do
    if ! BASE_VALS=$(baseline "$b"); then
        # New benchmark, no recorded baseline yet: informational only.
        if FRESH_VALS=$(fresh "$b"); then
            echo "bench_check: info $b ns/op ${FRESH_VALS% *}, allocs/op ${FRESH_VALS#* } (new — no baseline in $BASE)"
        else
            echo "bench_check: $b missing from $BASE baseline and did not run — skipping" >&2
        fi
        continue
    fi
    if ! FRESH_VALS=$(fresh "$b"); then
        echo "bench_check: FAIL $b did not run (harness broken?)" >&2
        FAILED=1
        continue
    fi
    BASE_NS=${BASE_VALS% *};  BASE_AL=${BASE_VALS#* }
    FRESH_NS=${FRESH_VALS% *}; FRESH_AL=${FRESH_VALS#* }
    # Integer math: regression iff fresh > base * (100 + TOL) / 100.
    LIMIT=$(( BASE_NS * (100 + TOL) / 100 ))
    if [ "$FRESH_NS" -gt "$LIMIT" ]; then
        echo "bench_check: FAIL $b ns/op regressed: $BASE_NS -> $FRESH_NS (limit $LIMIT, tol ${TOL}%)" >&2
        FAILED=1
    else
        echo "bench_check: ok   $b ns/op $BASE_NS -> $FRESH_NS"
    fi
    # Allocation contract: a zero-alloc baseline (EvaluatorValueGrad*, GEMM,
    # ValueGradBatch) must stay at zero; non-zero baselines get 2% slack for
    # scheduler jitter in the multi-start benchmarks — widened to 10% in
    # short mode, where one-time pool warm-up allocations amortize over far
    # fewer iterations than in the recorded 1s baseline.
    if [ "$BENCHTIME" = "1s" ]; then ASLACK=50; else ASLACK=10; fi
    ALIMIT=$(( BASE_AL + BASE_AL / ASLACK ))
    if [ "$FRESH_AL" -gt "$ALIMIT" ]; then
        echo "bench_check: FAIL $b allocs/op grew: $BASE_AL -> $FRESH_AL (limit $ALIMIT)" >&2
        FAILED=1
    fi
done

if [ "$FAILED" -ne 0 ]; then
    echo "bench_check: regression gate failed (baseline: last run in $BASE)" >&2
    exit 1
fi
echo "bench_check: all tracked benchmarks within ${TOL}% of the recorded baseline"
