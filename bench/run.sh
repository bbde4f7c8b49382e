#!/usr/bin/env bash
# Builds the benchmark from source into out/ beside this file and runs it with
# the arguments given. Nothing is written outside this directory: the Go build
# cache, the compiler's temporary files, the module cache and the toolchain's
# own counters all go to out/, and so do the span files and checkpoint scratch
# of the run (the binary writes beside itself).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
(
  cd "$here"
  export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
  export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
  go build -o "$out/bench" .
)
exec "$out/bench" "$@"
