#!/usr/bin/env bash
# Builds the benchmark and the cdsd daemon from this checkout's sources and
# runs one workload. Run from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and output stays inside the checkout:
# binaries and the Go build cache under .bench_build/, run metadata and
# span files under .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
# Build into a private directory, then move into place, so concurrent
# invocations never run a half-written binary.
bin="$(mktemp -d "$build/tmp/bin.XXXXXX")"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/cdsd" ./cmd/cdsd >&2
(cd perfbench && go build -o "$bin/perfbench" .) >&2
mv -f "$bin/cdsd" "$build/cdsd"
mv -f "$bin/perfbench" "$build/perfbench"
rmdir "$bin"
trap - EXIT
exec "$build/perfbench" -root "$root" -cdsd "$build/cdsd" -out "$root/.bench_out" "$@"
