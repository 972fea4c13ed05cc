#!/usr/bin/env bash
# Builds the served-epoch benchmark from this checkout and runs it:
#
#   bash servebench/run.sh --workload small-batch-1m --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, Go's own state and the
# binary stay under .bench_build/, results under .bench_out/.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/servebench" && go build -o "$out/servebench" .)
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/servebench" -commit "$commit" "$@"
