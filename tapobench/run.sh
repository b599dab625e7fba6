#!/usr/bin/env bash
# Builds tapobench from the enclosing checkout and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash tapobench/run.sh --workload cloud-storage --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, temporary files, the
# binary, the generated captures) stays under $CARGO_TARGET_DIR, or
# .bench_build when it is unset, inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/work"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd tapobench && go build -o "$build/tapobench" .)
exec "$build/tapobench" -workdir "$build/work" "$@"
