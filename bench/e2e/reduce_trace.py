#!/usr/bin/env python3
"""Reduces a traced e2e_bench run to per-layer metrics.

    python3 bench/e2e/reduce_trace.py DIR

DIR is what `e2e_bench --trace-out=DIR` wrote: harness.json (the harness-side
metrics, the list of trace chunks and the traced worker-iteration count) and
the Chrome trace chunks themselves. Every span's self time is its duration
minus the part of it that its children on the same thread cover. Each
`*_ms` metric below is the summed self time of its spans divided by the
traced worker-iterations. Metrics the harness measured itself are merged in
and win over the span-derived ones of the same name.

Prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""
import json
import os
import sys
from collections import defaultdict

# metric -> the spans whose self time it sums (docs/OBSERVABILITY.md names).
SPAN_METRICS = {
    "nn.forward_ms": ["forward"],
    "nn.backward_ms": ["backward"],
    "poseidon.wait_all_ms": ["wait_all"],
    "sync.move_out_ms": ["sync.move_out"],
    "sync.send_ms": ["sync.send"],
    "sync.receive_ms": ["sync.receive"],
    "codec.encode_raw_ms": ["codec.encode.raw"],
    "codec.encode_sf_ms": ["codec.encode.sf"],
    "codec.decode_sf_ms": ["codec.decode.sf"],
    "codec.encode_topk_ms": ["codec.encode.topk"],
    "codec.decode_topk_ms": ["codec.decode.topk"],
    "codec.decode_fp16_ms": ["codec.decode.fp16"],
    "kv.apply_ms": ["kv.apply"],
    "kv.barrier_ms": ["kv.ssp_stall"],
    "collective.hop_ms": ["collective.send_hop", "collective.recv_hop"],
    "bus.deliver_batch_ms": ["bus.deliver_batch"],
}


def span_times(events):
    """Returns ({name: self ns}, {name: duration ns}) over one chunk.

    Begin/end pairs nest per thread; an end without its begin (or the
    reverse) straddled a tracer reset and is skipped. Complete ('X') events
    are recorded after the fact and stand alone.
    """
    self_ns = defaultdict(float)
    total_ns = defaultdict(float)
    stacks = defaultdict(list)  # tid -> [[name, start, covered by children]]
    for event in events:
        name, phase = event["name"], event["ph"]
        ts = float(event["ts"]) * 1e3
        if phase == "X":
            dur = float(event["dur"]) * 1e3
            self_ns[name] += dur
            total_ns[name] += dur
        elif phase == "B":
            stacks[event["tid"]].append([name, ts, 0.0])
        elif phase == "E":
            stack = stacks[event["tid"]]
            if not stack or stack[-1][0] != name:
                continue
            _, start, covered = stack.pop()
            dur = ts - start
            self_ns[name] += dur - covered
            total_ns[name] += dur
            if stack:
                stack[-1][2] += dur
    return self_ns, total_ns


def reduce(trace_dir):
    with open(os.path.join(trace_dir, "harness.json")) as f:
        harness = json.load(f)
    self_ns = defaultdict(float)
    total_ns = defaultdict(float)
    for chunk in harness["chunks"]:
        with open(os.path.join(trace_dir, chunk)) as f:
            chunk_self, chunk_total = span_times(json.load(f)["traceEvents"])
        for name, ns in chunk_self.items():
            self_ns[name] += ns
        for name, ns in chunk_total.items():
            total_ns[name] += ns

    worker_iters = max(1, harness["worker_iterations"])
    metrics = {}
    for metric, spans in SPAN_METRICS.items():
        ns = sum(self_ns[span] for span in spans)
        metrics[metric] = {"value": ns / worker_iters / 1e6, "unit": "ms"}
    iteration_ns = total_ns["iteration"]
    metrics["poseidon.exposed_frac"] = {
        "value": total_ns["wait_all"] / iteration_ns if iteration_ns else 0.0,
        "unit": "ratio",
    }
    metrics.update(harness["metrics"])
    return {
        "correct": harness["correct"],
        "attempted": harness["attempted"],
        "failed": harness["failed"],
        "metrics": metrics,
    }


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: reduce_trace.py TRACE_DIR")
    print(json.dumps(reduce(sys.argv[1])))


if __name__ == "__main__":
    main()
