#!/usr/bin/env bash
# Builds resilientd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pbr-steady --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the root:
# the Go build cache, its temporary files and the go command's own
# configuration directory. Go telemetry is switched off there before the
# first go command: in its default "local" mode the go command forks a
# detached sidecar process that outlives the build.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/resilientd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root; go.mod, cmd/resilientd or perfbench/go.mod is missing" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/resilientd" ./cmd/resilientd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
