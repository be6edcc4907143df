#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload testbed-surge --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ so the run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# With telemetry on, the first go command in a fresh config directory
# starts a detached upload/crash-monitor child that outlives this script.
# "go telemetry off" itself starts none, and every later go command then
# starts none either.
go telemetry off
go build -trimpath -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
