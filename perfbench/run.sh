#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Everything the build and the run write stays under
# .bench_build/ in the checkout (Go build cache, binary, scratch data,
# traces and result files).
#
#   bash perfbench/run.sh --workload olap --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/config"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/gotmp"
# The go command keeps its telemetry under the user config directory.
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=
go -C "${root}/perfbench" build -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
