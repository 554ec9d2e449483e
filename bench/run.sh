#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Build output, the Go build cache and the go
# command's own config and telemetry files stay in .bench_build at the root
# of the checkout. Run from the checkout root:
#
#   bash bench/run.sh --workload burst-stream --seed 1 --seconds 40 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
