#!/usr/bin/env bash
# Builds the benchmark and sfcserve from source inside the checkout, then
# runs one workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload figure5 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --repeat 10
#
# --trace 1 runs the traced binary (per-layer metrics); every other flag is
# passed through. All build state stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	XDG_CACHE_HOME="$build/cache" GOTOOLCHAIN=local GOENV=off
# With telemetry on, the go command forks a detached child (its own session)
# that outlives the build; the mode file under XDG_CONFIG_HOME turns it off
# for every go command the benchmark runs, `go tool pprof` included.
mkdir -p "$build/config/go/telemetry"
printf 'off\n' >"$build/config/go/telemetry/mode"

bin=bench
prev=
for a in "$@"; do
	if [[ $prev == --trace && $a == 1 || $a == --trace=1 ]]; then
		bin=trace
	fi
	prev=$a
done

go build -o "$build/bin/sfcserve" ./cmd/sfcserve
go -C perfbench build -o "$build/bin/$bin" "./cmd/$bin"
exec "$build/bin/$bin" "$@"
