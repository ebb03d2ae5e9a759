#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed through. The go build cache lives under bench/out so
# nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOMODCACHE="$PWD/out/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o out/distws-bench .
exec out/distws-bench "$@"
