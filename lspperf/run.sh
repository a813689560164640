#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it:
#
#   bash lspperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash lspperf/run.sh --steady <runs> --workload <name> --seconds <s>
#
# The second form is the steadiness self-check (see main.go).
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, scratch data, span files) stays under
# .bench_build/ in that directory. The benchmark module builds against the
# repository through a replace of ../, so without the repository's go.mod
# beside it the build fails and nothing is run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/lspperf" && go build -o "$out/lspperf" .) >&2
exec "$out/lspperf" "$@"
