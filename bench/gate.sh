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
#
# Nominal times divide out the host's slowdown, and that correction holds
# only over the range it was calibrated on. `judge` prints each side's
# median `host_slowdown` per workload and the spread (max/min) of its runs'
# readings, and marks every row of a workload `unresolved` when the two
# sides' medians differ by more than a factor HOST_F, when one side's median
# is more than HOST_F times the median of the other workloads' medians in
# the same file, or when one side's own runs spread by more than HOST_F.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
e2e=bench/e2e/target/release/e2e
build() { cargo build --release --offline --quiet --manifest-path "$1/bench/e2e/Cargo.toml" --target-dir "$1/bench/e2e/target"; }

# From a five-pair A/A run of all four workloads on the 2-core container:
# its widest readings were 1.09x between sides and 1.04x against the other
# workloads; 1.5 leaves room for the host changing mode between workload
# blocks and still refuses the 2.41x of bench/fixtures/bench_e2e_pr29.json
# and the 2.55x spread within one side of bench/fixtures/bench_e2e_pr33.json,
# whose runs straddle two of the host's modes (README, *The perf gate*).
HOST_F=1.5

# Prints each workload's median host slowdown and its runs' spread on both
# sides, and "host: unresolved <workload> (…)" for every workload the host
# leaves unjudged.
host_check() {
  awk -v F="$HOST_F" '
    FNR == 1 { k++ }
    match($0, /"host_slowdown": [^,}]*/) {
      name = $0; sub(/.*"workload": "/, "", name); sub(/".*/, "", name)
      if (!(name in seen)) { seen[name]; listed[++nl] = name }
      h = substr($0, RSTART + 17, RLENGTH - 17) + 0
      x[k, name, ++c[k, name]] = h
      if (c[k, name] == 1 || h < lo[k, name]) lo[k, name] = h
      if (c[k, name] == 1 || h > hi[k, name]) hi[k, name] = h
    }
    # The median of v[1..n], which it sorts.
    function median(v, n,   i, j, t) {
      for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    }
    END {
      for (i = 1; i <= nl; i++) if (c[1, listed[i]] && c[2, listed[i]]) w[++nw] = listed[i]
      for (k = 1; k <= 2; k++) for (i = 1; i <= nw; i++) {
        split("", v); for (j = 1; j <= c[k, w[i]]; j++) v[j] = x[k, w[i], j]
        m[k, i] = median(v, c[k, w[i]])
      }
      for (i = 1; i <= nw; i++) {
        a = m[1, i]; b = m[2, i]; why = ""
        for (k = 1; k <= 2; k++) s[k] = hi[k, w[i]] / lo[k, w[i]]
        printf "host: %-14s median host_slowdown a %.2f b %.2f, spread a %.2fx b %.2fx\n", w[i], a, b, s[1], s[2]
        if (a > F * b || b > F * a) why = sprintf("; the sides differ by %.2fx", a > b ? a / b : b / a)
        for (k = 1; k <= 2; k++) if (s[k] > F)
          why = why sprintf("; side %s runs spread %.2fx (%.2f-%.2f)", k == 1 ? "a" : "b", s[k], lo[k, w[i]], hi[k, w[i]])
        for (k = 1; k <= 2 && nw > 1; k++) {
          split("", v); n = 0; for (j = 1; j <= nw; j++) if (j != i) v[++n] = m[k, j]
          if (m[k, i] > F * median(v, n))
            why = why sprintf("; side %s ran %.2fx the other workloads", k == 1 ? "a" : "b", m[k, i] / median(v, n))
        }
        if (why != "") printf "host: unresolved %s (bound %sx%s)\n", w[i], F, why
      }
    }' "$1" "$2"
}

judge() {
  local text host bad=0
  text=$("$e2e" compare "$1" "$2") || [ $? -eq 1 ] || return 2
  host=$(host_check "$1" "$2")
  echo "$host"
  # Every row of a workload the host leaves unjudged reads unresolved.
  text=$(awk 'FNR == NR { if ($2 == "unresolved") skip[$3]; next }
    ($1 in skip) && NF >= 7 { sub(/[a-z]+$/, "unresolved") } { print }' <(echo "$host") <(echo "$text"))
  echo "$text"
  awk 'FNR == NR { if (/ uniform /) gate[$1]; next }
    /DIFFERENT/ { print "gate: FAILED, " $0; bad = 1 }
    !($2 in gate) { next }
    { n[$NF]++; rows++ }
    $NF == "regressed" { print "gate: REGRESSED", $1, $2, "b/a", $5, "bound", $6; bad = 1 }
    $NF == "unresolved" { print "gate: unresolved (spread wider than the bound, or the host)", $1, $2, "b/a", $5 }
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
