#!/usr/bin/env bash
# Builds perfbench and runs it from the root of the checkout, passing
# every argument through. The binary and Go's build cache both go under
# .bench_build/ in the checkout, so a run writes nothing outside it.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$dir/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
go build -C "$dir" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
