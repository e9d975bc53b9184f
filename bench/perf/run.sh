#!/usr/bin/env bash
# Builds the benchmark once and runs it in the foreground.
#
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one process; the last line of output is the result JSON.
#   bash bench/perf/run.sh [--seed N] [--seconds S]
#       all four workloads, one process each, one after another: an untraced
#       run (end-to-end metrics) then a traced run (per-layer metrics) per
#       workload, every metric printed by name, and the full reports
#       collected in bench/perf/out/results.json.
#
# No go run, no background job, no sidecar, no shell timeout: the binary
# enforces its own deadline and exits non-zero, and this script fails if any
# child is still alive when it is done. Everything it writes stays inside the
# checkout: the build cache and binary under .bench_build/, traces and
# reports under bench/perf/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build" "$here/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters under the user's config
# directory and may start a helper process for them: move that directory into
# the checkout and switch telemetry off before the first build.
export XDG_CONFIG_HOME="$build/config"
go telemetry off

t0=$(date +%s.%N)
(cd "$here" && go build -o "$build/perf" .)
build_s=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.6f", b - a }')

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

rc=0
if [[ " $* " == *" --workload "* || " $* " == *" -workload "* || " $* " == *"-workload="* || " $* " == *" --list "* ]]; then
	"$build/perf" --build-s "$build_s" --commit "$commit" "$@" || rc=$?
else
	rm -f "$here/out/results.json"
	for w in $("$build/perf" --list); do
		for trace in 0 1; do
			"$build/perf" --build-s "$build_s" --commit "$commit" --append "$here/out/results.json" \
				--workload "$w" --trace "$trace" "$@" || rc=$?
		done
	done
	echo "full reports: bench/perf/out/results.json"
fi

if pgrep -P $$ >/dev/null; then
	echo "run.sh: a child process is still running" >&2
	exit 1
fi
exit "$rc"
