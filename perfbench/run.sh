#!/usr/bin/env bash
# Builds the flmbench benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload prove --seed 1 --seconds 27 --trace 0
#   bash perfbench/run.sh aa --workloads prove,census --runs 5
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the binary, Go's build cache, and the private
# store of the prove-warm workload. The build needs only the Go
# toolchain; it never touches the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/flmbench" .)
exec "$out/flmbench" "$@"
