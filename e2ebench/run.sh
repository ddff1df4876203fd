#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload daemon-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ under the repository root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/home/gomod" \
		GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/e2ebench" .
)

exec "$out/e2ebench" --commit "$commit" "$@"
