#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds coordbench from this checkout (coordbench then builds cmd/coordbotd)
# and runs it. Everything the build and the run write stays under bench/out.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$bench/out"
mkdir -p "$out"
# Keep the toolchain's caches and its telemetry inside the checkout too.
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
go -C "$bench" build -o "$out/coordbench" ./coordbench
exec "$out/coordbench" "$@"
