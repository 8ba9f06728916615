// Shared reporting helpers for the benchmark harnesses: scaling sweeps over
// (system, node-count) grids and uniform table formatting, so every
// regenerated figure prints comparable, diffable series.
#ifndef POSEIDON_SRC_STATS_REPORT_H_
#define POSEIDON_SRC_STATS_REPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_spec.h"
#include "src/cluster/protocol_sim.h"
#include "src/cluster/system_config.h"
#include "src/common/cli.h"
#include "src/models/model_spec.h"
#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"

namespace poseidon {

struct SweepResult {
  std::string system;
  int nodes = 0;
  double gbps = 0.0;
  SimResult sim;
};

// Runs every (system, nodes) combination for one model at fixed bandwidth.
std::vector<SweepResult> RunScalingSweep(const ModelSpec& model,
                                         const std::vector<SystemConfig>& systems,
                                         const std::vector<int>& node_counts, double gbps,
                                         Engine engine);

// The communication plan a bench's --plan flag selects at one sweep point:
// nullptr under --plan=paper (the bench keeps its hand-picked systems);
// the CommPlanner's joint search for (model, nodes, gbps) under
// --plan=auto (one PlanComm call per sweep point); the
// CommPlan JSON dump under --plan=fixed:<path> (fatal if the file does not
// load — a bench must never silently fall back to different settings).
std::shared_ptr<const CommPlan> PlanForBench(const BenchArgs& args, const ModelSpec& model,
                                             int nodes, double gbps);

// RunScalingSweep honoring --plan: under paper it is RunScalingSweep exactly;
// under auto/fixed the hand-picked `paper_systems` are replaced by one
// "Planned" system per sweep point (PlannedSystem over PlanForBench), so the
// planner's joint choice is what gets priced instead of the per-bench flag
// stacks.
std::vector<SweepResult> RunPlannedScalingSweep(const BenchArgs& args, const ModelSpec& model,
                                                const std::vector<SystemConfig>& paper_systems,
                                                const std::vector<int>& node_counts,
                                                double gbps, Engine engine);

// Per-layer dump of the plan driving a planned sweep at its largest
// configuration (empty string under --plan=paper), so planned tables are
// self-describing in the bench output.
std::string FormatPlanSummary(const BenchArgs& args, const ModelSpec& model, int nodes,
                              double gbps);

// Renders a figure-style speedup table: one row per node count, one column
// per system (plus the linear ideal).
std::string FormatSpeedupTable(const std::string& title,
                               const std::vector<SweepResult>& results);

// Egress-batcher ablation: runs `system` with batching off and on at each
// node count and renders per-node wire messages and tx gigabits per
// iteration side by side (the batcher's effect is on framing and message
// count; payload bytes and timing are unchanged).
std::string FormatBatchAblation(const std::string& title, const ModelSpec& model,
                                SystemConfig system, const std::vector<int>& node_counts,
                                double gbps, Engine engine);

// Loss-rate ablation: runs `system` at each wire loss rate and renders the
// iteration time, slowdown vs the lossless run, expected transmissions per
// message, and tx volume (retransmit inflation included). The modeled link
// layer retransmits, so loss costs time and bytes, never data — mirroring
// the live transport's fault fabric (docs/FAULT_TOLERANCE.md).
std::string FormatLossAblation(const std::string& title, const ModelSpec& model,
                               SystemConfig system, int nodes, double gbps, Engine engine,
                               const std::vector<double>& loss_rates);

// One point of the wire-compression ablation (bench_ext_compression and the
// micro-benchmark's recorded trajectory): a real small-cluster training run
// under one PS wire codec, with the bus's measured egress bytes and the loss
// trajectory. Runs are seeded and bitwise deterministic per configuration.
struct CompressionAblationPoint {
  double wire_bytes_per_iter = 0.0;  // measured bus egress, framing included
  double first_loss = 0.0;
  double final_loss = 0.0;
};

// Trains a small seeded MLP for `iters` iterations under `policy` (the size
// gate is lowered so every PS layer actually runs the codec; density applies
// to the top-k codec only).
CompressionAblationPoint RunCompressionAblation(PlanCodecPolicy policy,
                                                double topk_density, int iters);

}  // namespace poseidon

#endif  // POSEIDON_SRC_STATS_REPORT_H_
