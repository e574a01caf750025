#!/usr/bin/env bash
# Builds udao-server and the servbench program from the checkout this is run
# in, then runs the program with the given arguments. Run it from the
# repository root:
#
#   bash servbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in that checkout:
# the Go build cache, temporary files, the binaries and each run's state
# directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/udao-server || ! -f servbench/go.mod ]]; then
	echo "servbench: run from the repository root (need go.mod, cmd/udao-server and servbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/udao-server" ./cmd/udao-server
(cd servbench && go build -o "$out/servbench" .)
exec "$out/servbench" -server "$out/udao-server" -state "$out/state" "$@"
