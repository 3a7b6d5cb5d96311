#!/usr/bin/env bash
# The performance gate: same-host base/head pairs of the BENCHMARK.json
# workloads, judged by `e2e compare`.
#
#   bench/gate.sh <base-ref> <pairs> <first-seed> [workload...]
#   bench/gate.sh judge <a.json> <b.json>
#
# The first form checks <base-ref> out beside the head, builds bench/e2e in
# both trees and runs <pairs> alternating base/head pairs per workload (all
# four when none is named) on seeds <first-seed>.. at the benchmark's run
# length. Runs accumulate in gate/{base,head}.json over calls with the same
# two commits (`rm -r gate` starts over); the verdict is gate/compare.txt.
#
# Exit 1 on a `regressed` row of a metric in BENCHMARK.json's `end_to_end`
# (the `uniform` rows of `e2e list`), on head digests that differ for one
# seed, or on a run with failed operations. `compare`'s exit status is not
# the verdict: any `unresolved` row makes it non-zero, and those are listed
# here as unresolved, neither passed nor failed. The rows one workload alone
# reports (latencies, phase rates, `reopen_s`, disk bytes) are printed and
# never decide: BENCHMARK.json accepts a change on `end_to_end` alone, and
# this is that rule run early, not a stricter one.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
e2e=bench/e2e/target/release/e2e
build() { cargo build --release --offline --quiet --manifest-path "$1/bench/e2e/Cargo.toml" --target-dir "$1/bench/e2e/target"; }

judge() {
  local text bad=0
  text=$("$e2e" compare "$1" "$2") || [ $? -eq 1 ] || return 2
  echo "$text"
  awk 'FNR == NR { if (/ uniform /) gate[$1]; next }
    /DIFFERENT/ { print "gate: FAILED, " $0; bad = 1 }
    !($2 in gate) { next }
    { n[$NF]++; rows++ }
    $NF == "regressed" { print "gate: REGRESSED", $1, $2, "b/a", $5, "bound", $6; bad = 1 }
    $NF == "unresolved" { print "gate: unresolved (spread wider than the bound)", $1, $2, "b/a", $5 }
    END { printf "gate: end-to-end rows: %d ok, %d unresolved, %d regressed\n", n["ok"], n["unresolved"], n["regressed"]
      if (!rows) { print "gate: FAILED, no end-to-end row to compare"; bad = 1 }
      exit bad }' <("$e2e" list) <(echo "$text") || bad=1
  if grep -HoE '"failed": [1-9][0-9]*' "$1" "$2"; then
    echo "gate: FAILED, a run was not correct"
    bad=1
  fi
  return $bad
}

if [ "${1:-}" = judge ]; then
  build .
  judge "$2" "$3"
  exit
fi

pairs=$2 seed=$3 tree=gate/base-tree order=("base head" "head base")
base=$(git rev-parse --verify "$1^{commit}")
revs="base $base head $(git rev-parse HEAD)"
shift 3
git diff --quiet HEAD || { echo "uncommitted changes: each side's runs are recorded as one commit's, commit them first" >&2; exit 2; }
if [ -e gate/revs ] && [ "$(cat gate/revs)" != "$revs" ]; then
  echo "gate/ holds runs of $(cat gate/revs), not of $revs: remove it first" >&2; exit 2
fi
git worktree add --detach "$tree" "$base" > /dev/null
trap 'git worktree remove --force "$tree"; rm -f gate/e2e.base gate/e2e.head' EXIT
echo "$revs" > gate/revs
build .
build "$tree"
# Both sides run under names of one length: argv[0]'s length shifts the
# stack, which moved `setup_s` by 3 % between two copies of one binary here.
cp "$tree/$e2e" gate/e2e.base
cp "$e2e" gate/e2e.head

for w in ${*:-$("$e2e" list | awk 'seen { print $1 } /^workloads:/ { seen = 1 }')}; do
  for ((i = 0; i < pairs; i++)); do
    for side in ${order[i % 2]}; do
      # A run that is not correct exits non-zero, which stops the gate here.
      line=$("gate/e2e.$side" --workload "$w" --seed $((seed + i)) --trace 0 --json "gate/$side.json" | tail -n 1)
      echo "$side $w seed $((seed + i)): $line"
    done
  done
done
judge gate/base.json gate/head.json | tee gate/compare.txt
