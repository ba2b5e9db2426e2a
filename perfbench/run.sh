#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there; every argument passes through, e.g.
#
#	bash perfbench/run.sh --workload tx-gossip --seed 1 --seconds 25 --trace 0
#
# The Go build and module caches, the go command's configuration
# directory (where it keeps telemetry counters) and temporary files stay
# under .bench_build/ too, so the benchmark writes nothing outside the
# checkout. The network is never needed: the benchmark's module depends
# only on the program's module beside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/tmp" "$@"
