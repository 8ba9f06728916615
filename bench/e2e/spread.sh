#!/usr/bin/env bash
# Run-to-run spread of the end-to-end metrics.
#
#   bench/e2e/spread.sh [-n RUNS] [WORKLOAD ...]
#
# Runs each workload RUNS times (default 5) through run.sh, untraced, with
# BENCHMARK.json's run_seconds and seeds 1..RUNS, and prints per metric the
# median, the quartiles and the interquartile range as a share of the
# median: the number each metric's regression bound in BENCHMARK.json has to
# cover. Quartiles are Python's statistics.quantiles(values, n=4). Result
# lines are kept in build-e2e/spread/<workload>.jsonl.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
runs=5
selected=()
while (($#)); do
  case "$1" in
    -n) runs="$2"; shift 2 ;;
    -*) echo "spread.sh: unknown flag '$1'" >&2; exit 2 ;;
    *) selected+=("$1"); shift ;;
  esac
done
if ((${#selected[@]} == 0)); then
  selected=(cifar_wfbp vgg22k_hybcomm vgg22k_auto mlp_socket)
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"

out="$root/build-e2e/spread"
mkdir -p "$out"
for name in "${selected[@]}"; do
  : >"$out/$name.jsonl"
  for ((seed = 1; seed <= runs; seed++)); do
    echo "spread.sh: $name seed $seed" >&2
    bash "$here/run.sh" --workload "$name" --seed "$seed" --seconds "$seconds" --trace 0 \
      2>/dev/null | tail -n 1 >>"$out/$name.jsonl"
  done
done

python3 - "$out" "${selected[@]}" <<'EOF'
import json, statistics, sys

out, names = sys.argv[1], sys.argv[2:]
print(f"{'workload':<16} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
for name in names:
    with open(f"{out}/{name}.jsonl") as f:
        results = [json.loads(line) for line in f if line.strip()]
    failed = sum(1 for r in results if not r["correct"])
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:<16} {metric:<26} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
    if failed:
        print(f"{name:<16} {failed} of {len(results)} runs failed their checks")
EOF
