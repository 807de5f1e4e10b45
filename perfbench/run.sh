#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare --base DIR --change DIR
# Build output, the Go build cache and result files stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Everything the go command writes (build cache, temporary files,
# telemetry counters under the config directory) stays in $out; the
# build needs no module downloads and no toolchain switch.
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
