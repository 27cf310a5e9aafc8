#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload offload-scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary and the traced run's spans.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/perfbench/tmp"
out="$(cd "$build/perfbench" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
commit=unknown
if [ -e .git ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --trace-out "$out" "$@"
