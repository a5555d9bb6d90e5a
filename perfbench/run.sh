#!/usr/bin/env bash
# Builds the benchmark and the campaign daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload registry --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the working
# directory (Go build cache, temporary files, binaries).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sscampaignd || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sscampaignd and perfbench/ must exist)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/sscampaignd" ./cmd/sscampaignd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --daemon "$out/sscampaignd" "$@"
