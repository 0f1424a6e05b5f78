#!/usr/bin/env bash
# Builds tripolld and the perfbench command from this checkout into
# .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload survey-web --seed 1 --seconds 50 --trace 0
#
# Every build and run artefact (Go build cache, binaries, seed files, WAL
# directories, span traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/tripolld" tripoll/cmd/tripolld) >&2

exec "$out/bin/perfbench" -tripolld "$out/bin/tripolld" -work "$out/work" "$@"
