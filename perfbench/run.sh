#!/usr/bin/env bash
# Builds moved and the MOVE-bench program from this checkout, then runs one
# workload against freshly spawned loopback daemons:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 18 --trace 0
#
# Build outputs, the Go build cache and daemon logs all stay under
# .bench_build/perfbench in the checkout. The last stdout line is the JSON
# result; everything else on stdout is the human-readable report.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
# Without the program's sources there is nothing to measure: fail before the
# toolchain starts.
for f in go.mod cmd/moved perfbench/go.mod; do
	if [ ! -e "$root/$f" ]; then
		echo "run.sh: $root/$f is missing; run from a full checkout" >&2
		exit 1
	fi
done
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep the toolchain's caches and config in the checkout, with telemetry off:
# otherwise the go command forks a detached telemetry process that outlives
# the run.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
(cd "$root" && go build -o "$out/moved" ./cmd/moved) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -moved "$out/moved" -workdir "$out/run" "$@"
