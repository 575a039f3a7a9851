#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The Go build cache, the binary, the
# generated inputs and the trace files stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
