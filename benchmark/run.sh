#!/usr/bin/env bash
# Build the benchmark from source and run it, passing every argument through.
# Everything the build writes (binary, Go build cache, temporary files) stays
# in .bench_build/ at the root of the checkout; with a warm cache the build
# is a no-op of a few hundred milliseconds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/hydrabench" .)
exec "$out/hydrabench" "$@"
