#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash ledgerbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ledgerbench in the
# current directory: the Go build cache, the binary and the span files.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build/ledgerbench"
mkdir -p "$out"
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" --span-dir "$out/spans" "$@"
