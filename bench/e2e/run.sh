#!/usr/bin/env bash
# End-to-end training benchmark (see README.md in this directory).
#
#   bench/e2e/run.sh --workload=NAME|all [--seed=N] [--seconds=S]
#                    [--trace-out=DIR] [--smoke]
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the harness and the Poseidon library into build-e2e/ at the
# repository root, then runs one process per workload. Each workload's JSON
# result is one line on stdout; with --trace 1 or --trace-out the line holds
# the per-layer metrics reduced from the run's trace. Build output and
# progress go to stderr.
#
# --smoke runs every workload briefly, untraced and traced, and checks that
# each metric BENCHMARK.json declares is printed, finite and in its unit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workloads=(cifar_wfbp vgg22k_hybcomm vgg22k_auto mlp_socket)

workload=""
seed=1
seconds=28
trace=0
trace_out=""
smoke=0
while (($#)); do
  arg="$1"
  shift
  case "$arg" in
    --smoke) smoke=1; continue ;;
    --*=*) flag="${arg%%=*}"; value="${arg#*=}" ;;
    --*)
      flag="$arg"
      if (($# == 0)); then echo "run.sh: $flag needs a value" >&2; exit 2; fi
      value="$1"
      shift
      ;;
    *) echo "run.sh: unexpected argument '$arg'" >&2; exit 2 ;;
  esac
  case "$flag" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --trace-out) trace_out="$value"; trace=1 ;;
    *) echo "run.sh: unknown flag '$flag'" >&2; exit 2 ;;
  esac
done
if ((smoke)); then
  workload="${workload:-all}"
fi
if [[ -z "$workload" ]]; then
  echo "run.sh: --workload is required (one of: ${workloads[*]} all)" >&2
  exit 2
fi
if [[ "$workload" == all ]]; then
  selected=("${workloads[@]}")
else
  selected=("$workload")
fi

cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no Poseidon source tree at $root" >&2
  exit 2
fi

build=build-e2e
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then
    generator=(-G Ninja)
  fi
  cmake -S bench/e2e -B "$build" ${generator[@]+"${generator[@]}"} >&2
fi
cmake --build "$build" --target e2e_bench -j 4 >&2

# run_one WORKLOAD SECONDS TRACE [--smoke]: prints the workload's result line.
run_one() {
  local name="$1" secs="$2" traced="$3"
  shift 3
  local args=(--workload="$name" --seed="$seed" --seconds="$secs"
              --work-dir="$build/work/$name" "$@")
  if ((traced)); then
    local dir="${trace_out:-$build/trace}/$name"
    rm -rf "$dir"
    mkdir -p "$dir"
    local rc=0
    "$build/e2e_bench" "${args[@]}" --trace-out="$dir" || rc=$?
    if [[ ! -f "$dir/harness.json" ]]; then
      return "$((rc ? rc : 1))"
    fi
    python3 "$here/reduce_trace.py" "$dir"
    echo "run.sh: trace chunks for $name in $dir" >&2
    return "$rc"
  fi
  "$build/e2e_bench" "${args[@]}"
}

if ((smoke)); then
  for name in "${selected[@]}"; do
    for traced in 0 1; do
      echo "run.sh: smoke $name trace=$traced" >&2
      line="$(run_one "$name" 1 "$traced" --smoke | tail -n 1)"
      python3 - BENCHMARK.json "$traced" "$line" <<'EOF'
import json, math, sys

declared = json.load(open(sys.argv[1]))
kind = "per_layer" if sys.argv[2] == "1" else "end_to_end"
result = json.loads(sys.argv[3])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] is True and result["failed"] == 0, result
assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
problems = []
for metric in declared[kind]:
    got = result["metrics"].get(metric["name"])
    if got is None:
        problems.append(f"{metric['name']}: missing")
    elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
        problems.append(f"{metric['name']}: value {got['value']!r} is not finite")
    elif got["unit"] != metric["unit"]:
        problems.append(f"{metric['name']}: unit {got['unit']!r}, declared {metric['unit']!r}")
extra = set(result["metrics"]) - {m["name"] for m in declared[kind]}
problems += [f"{name}: printed but not declared" for name in sorted(extra)]
if problems:
    sys.exit("smoke check failed:\n  " + "\n  ".join(problems))
print(f"ok: {len(declared[kind])} {kind} metrics", file=sys.stderr)
EOF
    done
  done
  echo "run.sh: smoke passed" >&2
  exit 0
fi

for name in "${selected[@]}"; do
  if ((${#selected[@]} > 1)); then
    echo "# $name"
  fi
  run_one "$name" "$seconds" "$trace"
done
