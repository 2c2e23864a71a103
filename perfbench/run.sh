#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it,
# passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload paper-phases --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ at the checkout root; nothing is written elsewhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
