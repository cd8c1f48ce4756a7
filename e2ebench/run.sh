#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the root of the repository:
#
#   bash e2ebench/run.sh --workload firehose|replay|tmax --seed N --seconds S --trace 0|1
#
# Everything it writes (Go build cache, binary, results, traces, scratch
# logs) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

# The build stamps the git commit into the binary for the host stanza.
# Outside a git checkout there is nothing to stamp; where git cannot read
# the enclosing repository, build unstamped.
(cd e2ebench && { go build -o "$out/e2ebench" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/e2ebench" .; })
exec "$out/e2ebench" --out "$out" "$@"
