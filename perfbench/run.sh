#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload forkjoin --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# (or $CARGO_TARGET_DIR when set), inside the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod in $root)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .) >&2

commit=unknown
if command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit" PERFBENCH_OUT="$build/traces"
exec "$build/perfbench" "$@"
