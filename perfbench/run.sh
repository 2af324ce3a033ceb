#!/usr/bin/env bash
# Builds the gea CLI and the load generator from this checkout, then runs
# one benchmark workload against the freshly built binary.
#
#   bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (Go build cache, binaries, corpora, server stores and logs) lives under
# .bench_build/ in the checkout. Only the result line goes to stdout's
# last line; build output goes to stderr.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off

# Rebuild only when a Go source, a go.mod or the toolchain changed since
# the last build in this checkout.
stamp=$( { go version; find . \( -path ./.bench_build -o -path ./.git \) -prune -o \
	-type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print0 | LC_ALL=C sort -z | xargs -0 cat; } | sha256sum)
if [ ! -x "$out/bin/gea" ] || [ ! -x "$out/bin/perfbench" ] || [ "$stamp" != "$(cat "$out/bin/stamp" 2>/dev/null)" ]; then
	rm -f "$out/bin/stamp"
	go build -o "$out/bin/gea" ./cmd/gea >&2
	(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
	printf '%s\n' "$stamp" > "$out/bin/stamp"
fi
exec "$out/bin/perfbench" -root "$root" -gea "$out/bin/gea" "$@"
