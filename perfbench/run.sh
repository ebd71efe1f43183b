#!/usr/bin/env bash
# Builds the benchmark and cmd/saimserve from this checkout, then runs one
# workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload qkp300 --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays in .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(
	cd "$here"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/saimserve" github.com/ising-machines/saim/cmd/saimserve
) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
