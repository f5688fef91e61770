#!/usr/bin/env bash
# Checks that the checked-out tree simulates exactly what a parent commit
# simulates, for refactors that claim "every simulated bit unchanged".
#
#   tools/same_behaviour.sh <parent-ref> [jobs]
#
# Builds <parent-ref> (exported with `git archive`, so an interrupted run
# leaves no worktree registered in the repository) and the checked-out tree,
# both in Release mode under a temporary directory, then runs each side and
# diffs:
#   golden    golden_test results (pass/fail per case, timings stripped)
#   fuzz      the per-seed lines of bench_fuzz_campaign --seeds 3000
#             --seed-base 1 --no-minimize
#   fig2      the JSON lines of bench_fig2_throughput --quick
#   recovery  the recovery_replay JSON lines of bench_recovery_bench --quick
#   perfbench sim_digest and simulated-plane metrics of one untraced
#             perfbench_workload run per gated workload, seeds 1 and 2 (the
#             run behind perfbench/run.py --seconds 30 --trace 0)
# Prints one line per item and exits 1 if any item differs. Set TMPDIR to
# choose where the two builds go (about 1 GB).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <parent-ref> [jobs]" >&2
  exit 2
fi
parent_ref=$1
jobs=${2:-4}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/same-behaviour.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent-src"
git -C "$root" archive "$parent_ref" | tar -x -C "$work/parent-src"

build() {  # <source dir> <output dir>; compiler output goes to <output dir>.log
  mkdir -p "$2"
  if ! {
    cmake -S "$1" -B "$2/build" -DCMAKE_BUILD_TYPE=Release &&
      cmake --build "$2/build" -j "$jobs" --target golden_test bench_fuzz_campaign \
        bench_fig2_throughput bench_recovery_bench &&
      cmake -S "$1/perfbench" -B "$2/perfbench" -DCMAKE_BUILD_TYPE=Release &&
      cmake --build "$2/perfbench" -j "$jobs" --target perfbench_workload
  } > "$2.log" 2>&1; then
    tail -20 "$2.log" >&2
    echo "same_behaviour: build of $1 failed" >&2
    exit 1
  fi
}

capture() {  # <output dir>: writes one file per compared item
  local out=$1 bin=$1/build
  cd "$out"  # bench_fuzz_campaign writes fuzz-repros/ into the working directory
  "$bin/golden_test" 2>&1 | sed -E 's/ \([0-9]+ ms( total)?\)//' > golden.txt || true
  # Exits 1 when any seed fails; the per-seed lines are the comparison.
  "$bin/bench_fuzz_campaign" --seeds 3000 --seed-base 1 --no-minimize \
    > fuzz.txt 2>/dev/null || true
  "$bin/bench_fig2_throughput" --quick | grep '^{' > fig2.txt
  "$bin/bench_recovery_bench" --quick | grep '"bench":"recovery_replay"' > recovery.txt
  : > perfbench.txt
  for workload in sbft-f64-batched pbft-f16-unbatched; do
    for seed in 1 2; do
      "$out/perfbench/perfbench_workload" --workload "$workload" --seed "$seed" |
        python3 -c 'import json, sys
r = json.loads(sys.stdin.readlines()[-1])
print(r["workload"], r["seed"], "correct" if r["correct"] else "INCORRECT",
      r["attempted"], r["failed"], r["sim_digest"], json.dumps(r["sim"], sort_keys=True))' \
        >> perfbench.txt
    done
  done
}

echo "same_behaviour: building $parent_ref and the checked-out tree in $work" >&2
build "$work/parent-src" "$work/parent"
build "$root" "$work/head"
echo "same_behaviour: running both sides" >&2
(capture "$work/parent") &
parent_pid=$!
capture "$work/head"
wait "$parent_pid"

status=0
for item in golden fuzz fig2 recovery perfbench; do
  if cmp -s "$work/parent/$item.txt" "$work/head/$item.txt"; then
    echo "same      $item ($(wc -l < "$work/head/$item.txt") lines)"
  else
    echo "DIFFERENT $item"
    diff "$work/parent/$item.txt" "$work/head/$item.txt" | head -20
    status=1
  fi
done
grep -q '^\[  PASSED  \]' "$work/head/golden.txt" || { echo "golden_test fails"; status=1; }
echo "fuzz failing seeds: $(grep -c '"ok":false' "$work/head/fuzz.txt" || true)"
cut -d' ' -f1-6 "$work/head/perfbench.txt"
exit $status
