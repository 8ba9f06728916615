#!/usr/bin/env python3
"""Validates the bench JSON records emitted via --json-out.

CI runs this over BENCH_micro.json after the bench-smoke job: a refactor
that silently stops producing a tracked series (or produces NaN/empty
garbage) must fail the build, not ship a hole in the perf trajectory.

Usage: check_bench_json.py FILE [FILE...]
Exit status: 0 when every file is well-formed, 1 otherwise.
"""

import json
import math
import statistics
import sys

# Every series the micro-benchmark record must carry, with a lower bound the
# value has to clear (counts and rates are strictly positive; the overhead
# fraction only has to be a finite non-negative number — the binary itself
# enforces the 2% budget and this checker re-enforces it below).
MICRO_REQUIRED = {
    "raw_encode_floats_per_s": 0.0,
    "sf_roundtrip_floats_per_s": 0.0,
    "onebit_roundtrip_floats_per_s": 0.0,
    "wire_ps_floats_per_iter": 0.0,
    "wire_ps_copies_per_iter": 0.0,
    "wire_ps_msgs_per_iter": 0.0,
    "wire_ps_copy_reduction": 1.0,
    "wire_sfb_floats_per_iter": 0.0,
    "wire_sfb_copies_per_iter": 0.0,
    "wire_onebit_floats_per_iter": 0.0,
    "wire_onebit_copies_per_iter": 0.0,
    "socket_tcp_gbps": 0.0,
    "socket_unix_gbps": 0.0,
    "disabled_span_ns": 0.0,
    "telemetry_overhead_frac": -1.0,
    # Roofline section (docs/PERFORMANCE.md): scalar-vs-dispatched kernel
    # throughput plus the streaming-bandwidth ceiling.
    "onebit_roundtrip_floats_per_s_scalar": 0.0,
    "onebit_roundtrip_floats_per_s_simd": 0.0,
    "ring_reduce_floats_per_s_scalar": 0.0,
    "ring_reduce_floats_per_s_simd": 0.0,
    "gemm_trans_b_conv_floats_per_s_scalar": 0.0,
    "gemm_trans_b_conv_floats_per_s_simd": 0.0,
    "gemm_trans_b_fc_floats_per_s_scalar": 0.0,
    "gemm_trans_b_fc_floats_per_s_simd": 0.0,
    "conv_layer_floats_per_s_scalar": 0.0,
    "conv_layer_floats_per_s_simd": 0.0,
    "mem_bw_gbps": 0.0,
    # Compressed-PS bytes-vs-loss trajectory (docs/COMPRESSION.md): measured
    # bus egress per codec on a seeded training run, plus the headline
    # reduction gated below.
    "ext_compression_raw_bytes_per_iter": 0.0,
    "ext_compression_int8_bytes_per_iter": 0.0,
    "ext_compression_topk_bytes_per_iter": 0.0,
    "ext_compression_raw_final_loss": 0.0,
    "ext_compression_int8_final_loss": 0.0,
    "ext_compression_topk_final_loss": 0.0,
    "ext_compression_best_matched_reduction": 0.0,
    # CommPlanner trajectory (docs/PLANNER.md): joint-search cost and the
    # predicted-bytes comparison against the paper default. The speedup and ratio floors are gated below.
    "planner_cold_search_us": 0.0,
    "planner_default_bytes_per_iter": 0.0,
    "planner_planned_bytes_per_iter": 0.0,
    "planner_bytes_ratio": 0.0,
}

# Minimum wire-byte reduction of the best codec whose run stayed loss-matched
# with raw fp32 (the binary computes "matched" as recovering >= 90% of raw's
# loss improvement). Under 2x means compression quietly stopped paying for
# itself — e.g. a codec regressed to raw frames or the error feedback broke
# convergence on every codec.
COMPRESSION_MIN_REDUCTION = 2.0

OVERHEAD_BUDGET = 0.02

# The joint search must never predict more wire bytes than the hand-picked
# paper default it replaces (ratio = default / planned).
PLANNER_MIN_BYTES_RATIO = 1.0

# Minimum speedup of the dispatched 1-bit round trip over the pinned-scalar
# run, enforced only when the host actually has a SIMD backend (meta
# simd_available). The kernels' headline case: anything under this means the
# vector path quietly fell off (dispatch regression, scalar fallback, a
# de-vectorized kernel) even if every series is still present.
ONEBIT_SIMD_MIN_RATIO = 4.0

# The same floor for GemmTransB (FC forward, SF reconstruction) on each
# recorded shape: the "conv" shape (CIFAR conv2's old im2col product; the
# conv forward no longer calls GemmTransB, but SF reconstruction still runs
# this column-lane path) and the FC shape the row-lane path, so each gate
# catches one of them falling back to the serial scalar dot product. Both
# ratios come from one process, so host drift cancels out.
GEMM_TRANS_B_SHAPES = ("conv", "fc")
GEMM_TRANS_B_SIMD_MIN_RATIO = 4.0

# And for the conv forward itself (Conv2dLayer::Forward on CIFAR conv2 at
# batch 16, through the packed-panel tile): catches the layer's forward
# falling back to the scalar tile or to a de-vectorized one.
CONV_LAYER_SIMD_MIN_RATIO = 4.0

# Each series holds several repeats. The higher-is-better floors below gate
# on the median of those repeats, so one lucky repeat cannot carry a gate.
# The overhead budget is a ceiling and keeps max(): the median would loosen
# it.


def fail(path, message):
    print(f"{path}: FAIL: {message}", file=sys.stderr)
    return False


def spread(values):
    """The repeats' min/median/max, for failure messages."""
    return (f"min {min(values):.3g} / median {statistics.median(values):.3g} / "
            f"max {max(values):.3g}")


def speedup_failure(name, simd, scalar, floor):
    """The failure message when the median simd/scalar ratio is under
    `floor`, else None."""
    ratio = statistics.median(simd) / statistics.median(scalar)
    if ratio >= floor:
        return None
    return (f"{name} simd/scalar speedup {ratio:.2f}x (median over median) is "
            f"below the {floor}x floor (simd {spread(simd)}; scalar "
            f"{spread(scalar)})")


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return fail(path, f"unreadable or malformed JSON ({err})")

    if not isinstance(record, dict):
        return fail(path, "top level is not an object")
    bench = record.get("bench")
    if not isinstance(bench, str) or not bench:
        return fail(path, "missing 'bench' name")
    series = record.get("series")
    if not isinstance(series, dict) or not series:
        return fail(path, "missing or empty 'series' object")

    ok = True
    for name, values in series.items():
        if not isinstance(values, list) or not values:
            ok = fail(path, f"series '{name}' is empty")
            continue
        for v in values:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                ok = fail(path, f"series '{name}' has a non-finite sample: {v!r}")
                break

    if bench == "micro_benchmarks":
        for name, minimum in MICRO_REQUIRED.items():
            values = series.get(name)
            if not isinstance(values, list) or not values:
                ok = fail(path, f"required series '{name}' is missing or empty")
                continue
            if any(not math.isfinite(v) or v <= minimum for v in values
                   if isinstance(v, (int, float))):
                ok = fail(path, f"series '{name}' has samples <= {minimum}: {values}")
        reduction = series.get("ext_compression_best_matched_reduction") or []
        if reduction and statistics.median(reduction) < COMPRESSION_MIN_REDUCTION:
            ok = fail(path, f"best loss-matched compression reduction "
                            f"{statistics.median(reduction):.2f}x (median) is "
                            f"below the {COMPRESSION_MIN_REDUCTION}x floor "
                            f"({spread(reduction)})")
        bytes_ratio = series.get("planner_bytes_ratio") or []
        if bytes_ratio and statistics.median(bytes_ratio) < PLANNER_MIN_BYTES_RATIO:
            ok = fail(path, f"joint plan predicts more wire bytes than the "
                            f"paper default (median ratio "
                            f"{statistics.median(bytes_ratio):.3f} < "
                            f"{PLANNER_MIN_BYTES_RATIO}; {spread(bytes_ratio)})")
        overhead = series.get("telemetry_overhead_frac", [])
        if overhead and max(overhead) >= OVERHEAD_BUDGET:
            ok = fail(path, f"disabled-tracing overhead {max(overhead):.4f} "
                            f">= budget {OVERHEAD_BUDGET}")
        meta = record.get("meta", {})
        simd_available = meta.get("simd_available", 0)
        scalar = series.get("onebit_roundtrip_floats_per_s_scalar") or []
        simd = series.get("onebit_roundtrip_floats_per_s_simd") or []
        if simd_available and scalar and simd:
            message = speedup_failure("onebit", simd, scalar, ONEBIT_SIMD_MIN_RATIO)
            if message:
                ok = fail(path, message)
        elif not simd_available:
            print(f"{path}: note: no SIMD backend on this host; "
                  f"skipping the onebit speedup gate")
        for shape in GEMM_TRANS_B_SHAPES:
            gemm_scalar = series.get(f"gemm_trans_b_{shape}_floats_per_s_scalar") or []
            gemm_simd = series.get(f"gemm_trans_b_{shape}_floats_per_s_simd") or []
            if simd_available and gemm_scalar and gemm_simd:
                message = speedup_failure(f"gemm_trans_b {shape}", gemm_simd,
                                          gemm_scalar, GEMM_TRANS_B_SIMD_MIN_RATIO)
                if message:
                    ok = fail(path, message)
        conv_scalar = series.get("conv_layer_floats_per_s_scalar") or []
        conv_simd = series.get("conv_layer_floats_per_s_simd") or []
        if simd_available and conv_scalar and conv_simd:
            message = speedup_failure("conv_layer", conv_simd, conv_scalar,
                                      CONV_LAYER_SIMD_MIN_RATIO)
            if message:
                ok = fail(path, message)

    if ok:
        print(f"{path}: ok ({bench}: {len(series)} series)")
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    return 0 if all([check_file(p) for p in argv[1:]]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
