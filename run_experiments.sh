#!/usr/bin/env bash
# Regenerates every experiment's output into results/ (see EXPERIMENTS.md).
set -uo pipefail
cd "$(dirname "$0")"
bins="figure2 eventual_pattern check_snapshot wait_freedom check_not_atomic renaming_bound consensus_of lower_bound group_semantics level_dynamics anonymity_cost covering_rate"
for b in $bins; do
  echo "== running $b =="
  args=()
  # check_snapshot's uncapped n=3 sweep holds about 1.1 GB per worker;
  # two workers match the committed report and keep it near 2 GB.
  [ "$b" = check_snapshot ] && args=(--jobs 2)
  cargo run --release -q -p fa-bench --bin "$b" -- "${args[@]}" > "results/$b.txt" 2>&1
  echo "   exit=$? -> results/$b.txt"
done
echo "done"
