#!/usr/bin/env bash
# Builds the end-to-end benchmark from the repository's sources and runs
# it with the given flags. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload batch-skewed --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the go command's temporary files
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout;
# traced runs write to .bench_build/e2ebench-trace unless --trace-out
# names another directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
