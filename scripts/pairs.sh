#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload (the measurement
# bench/perf/README.md and the choosing-metrics rule ask of a host-time claim).
#
#   bash scripts/pairs.sh W PARENT [SEED] [N] [SECONDS]
#   make pairs W=replay_modern PARENT=HEAD~1 [SEED=1] [N=10]
#
# The parent is PARENT's committed tree, unpacked under .bench_build/pairs/
# (the trees of other parents there are removed first);
# the change is this checkout as it stands, uncommitted edits included. Each
# side is built once by its own bench/perf/run.sh, which is then called as is
# (--workload W --seed SEED --seconds S --trace 0), once per side per pair,
# the parent first in odd pairs and the change first in even ones. Every run's
# result line is kept in .bench_build/pairs/W.seedSEED.jsonl; the table printed
# at the end gives, per end-to-end metric of BENCHMARK.json, each side's median
# and quartiles, the pairs the change won, tied and lost, and says whether
# every virt_* metric was exactly equal in every run of both sides.
set -euo pipefail

if [[ $# -lt 2 || -z "$1" || -z "$2" ]]; then
	sed -n '2,17p' "${BASH_SOURCE[0]}" >&2
	exit 2
fi
w="$1" parent="$2" seed="${3:-1}" n="${4:-10}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
secs="${5:-$(jq .run_seconds BENCHMARK.json)}"
rev="$(git rev-parse --verify "$parent^{commit}")"

work="$root/.bench_build/pairs"
pdir="$work/parent-$rev"
# Keep one parent tree: drop those of other revisions (the *.jsonl results stay).
for d in "$work"/parent-*; do
	if [[ -d "$d" && "$d" != "$pdir" ]]; then
		rm -rf "$d"
	fi
done
if [[ ! -d "$pdir" ]]; then
	mkdir -p "$pdir"
	git archive "$rev" | tar -x -C "$pdir"
fi
out="$work/$w.seed$seed.jsonl"
: >"$out"

# Build both sides before the first timed run.
bash "$pdir/bench/perf/run.sh" --list >/dev/null
bash "$root/bench/perf/run.sh" --list >/dev/null

run() { # side dir pair order
	local line
	line="$(bash "$2/bench/perf/run.sh" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1)"
	jq -c --arg side "$1" --argjson pair "$3" --argjson order "$4" \
		'{pair: $pair, side: $side, order: $order} + .' <<<"$line" >>"$out"
	jq -r --arg side "$1" --argjson pair "$3" \
		'"pair \($pair) \($side): " + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" ")) + " failed=\(.failed)/\(.attempted)"' <<<"$line"
}

echo "pairs: $w seed $seed, $n pairs of $secs s; parent ${rev:0:7}, change = working tree"
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run parent "$pdir" "$i" 1
		run change "$root" "$i" 2
	else
		run change "$root" "$i" 1
		run parent "$pdir" "$i" 2
	fi
done

jq -rs --slurpfile bm BENCHMARK.json '
	def q(p): sort as $s | (($s | length) - 1) * p | . as $h | floor as $lo
		| $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
	def sig: if . == 0 then 0 else . as $x | pow(10; 5 - ($x | fabs | log10 | floor)) as $k | ($x * $k | round) / $k end;
	def stats: "\(q(0.5) | sig) [\(q(0.25) | sig), \(q(0.75) | sig)]";
	. as $runs
	| ($runs | map(.failed) | add) as $failed
	| ($bm[0].end_to_end[] | . as $m
		| [$runs[] | select(.side == "parent") | .metrics[$m.name].value] as $p
		| [$runs[] | select(.side == "change") | .metrics[$m.name].value] as $c
		| ([$runs | group_by(.pair)[] | (map(select(.side == "parent"))[0].metrics[$m.name].value) as $a
			| (map(select(.side == "change"))[0].metrics[$m.name].value) as $b
			| if $a == $b then "tie" elif ($b < $a) == ($m.better == "lower") then "win" else "loss" end]) as $o
		| "\($m.name) (\($m.unit), \($m.better) is better)\n  parent \($p | stats)\n  change \($c | stats)\n"
			+ "  median \(if ($p | q(0.5)) == 0 then "n/a" else ((($c | q(0.5)) / ($p | q(0.5)) - 1) * 1000 | round / 10 | tostring) + "%" end)"
			+ " vs parent IQR \(($p | q(0.75)) - ($p | q(0.25)) | sig);"
			+ " change wins \($o | map(select(. == "win")) | length), ties \($o | map(select(. == "tie")) | length), loses \($o | map(select(. == "loss")) | length)"),
	  "virt_* exactly equal in every run: \([$bm[0].end_to_end[].name | select(startswith("virt_")) | . as $k
		| [$runs[].metrics[$k].value] | unique | length == 1] | all)",
	  "failed cells, all runs: \($failed)"
' "$out"
