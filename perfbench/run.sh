#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload plan-refine --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# any Chrome trace stay under .perfbench/ in that directory; nothing is
# fetched (GOPROXY=off), so a tree without the mpress sources fails to
# build and exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
