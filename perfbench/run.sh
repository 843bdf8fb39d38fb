#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Every build artefact (Go build cache, module cache, binary) stays
# under .bench_build/ in the checkout root, and the toolchain is kept
# offline. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload ssb-serve --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare A.json B.json
set -euo pipefail

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # Go's default install location

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
