#!/usr/bin/env bash
# Repeat runner: runs every workload in BENCHMARK.json N times, each run
# its own process, reversing the workload order on every other round so
# a drift in the shared host's load is spread over all workloads instead
# of landing on one. Round r uses seed SEED+r, so two invocations with
# the same arguments replay the same query streams. Prints the median,
# quartiles and IQR/median of every end-to-end metric, flags spreads
# beyond each metric's bound, and, given a baseline directory of an
# earlier invocation, flags medians that got worse beyond the bound.
#
#   perfbench/run_benchmark.sh [N=3] [SEED=1] [BASELINE_DIR]
#
# Logs go to .bench_build/perfbench-runs/<timestamp>/: one .log (stdout)
# and one .err (build output and diagnostics) per run.
set -euo pipefail
cd "$(dirname "$0")/.."

rounds=${1:-3}
seed=${2:-1}
baseline=${3:-}
run_seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')

out=.bench_build/perfbench-runs/$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"
echo "logs: $out"

for ((r = 0; r < rounds; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 1)); then
    for ((i = 0, j = ${#order[@]} - 1; i < j; i++, j--)); do
      tmp=${order[i]}; order[i]=${order[j]}; order[j]=$tmp
    done
  fi
  for w in "${order[@]}"; do
    s=$((seed + r))
    echo "round $((r + 1))/$rounds: $w seed $s"
    python3 perfbench/run.py --workload "$w" --seed "$s" \
      --seconds "$run_seconds" --trace 0 > "$out/$w.$r.log" 2> "$out/$w.$r.err" ||
      echo "  $w seed $s exited nonzero"
  done
done

python3 perfbench/summarize.py "$out" ${baseline:+"$baseline"}
