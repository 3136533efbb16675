#!/usr/bin/env bash
# Builds ipbench from source and runs it with the given arguments. Run it
# from the repository root, for example
#
#   bash cmd/ipbench/run.sh --workload sim-hsn25-uniform --seed 1 --seconds 10 --trace 0
#
# The binary and Go's build cache go to .bench_build/ under the current
# directory, so nothing is written outside the checkout. The build needs the
# whole repository: ipbench imports its packages through a replace directive.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C cmd/ipbench build -o "$out/ipbench" .
exec "$out/ipbench" "$@"
