// Regenerates Table 1: estimated communication cost (floats per node per
// iteration) of PS, SFB and Adam for synchronizing an M x N FC layer on a
// cluster with P1 workers and P2 servers, batch size K — including the
// paper's §3.2 worked example (M=N=4096, K=32, P1=P2=8) and sweeps showing
// where the crossover sits.
#include <cstdio>
#include <optional>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/models/comm_cost.h"
#include "src/models/model_spec.h"
#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"
#include "src/stats/report.h"
#include "src/transport/bus.h"

namespace poseidon {
namespace {

// PS columns are costed at the configured shard count (--shards, default 1
// = the paper's single-endpoint servers); at 1 the sharded rows collapse
// onto the published Table 1 exactly.
void PrintCostRow(TextTable* table, const CommCostQuery& q) {
  table->AddRow({
      std::to_string(q.m) + "x" + std::to_string(q.n),
      std::to_string(q.batch_k),
      std::to_string(q.num_workers),
      TextTable::Num(PsWorkerFloats(q) / 1e6, 2),
      TextTable::Num(PsShardedServerFloats(q) / 1e6, 2),
      TextTable::Num(PsShardedColocatedFloats(q) / 1e6, 2),
      TextTable::Num(SfbWorkerFloats(q) / 1e6, 2),
      TextTable::Num(AdamServerMaxFloats(q) / 1e6, 2),
      TextTable::Num(AdamWorkerFloats(q) / 1e6, 2),
      TextTable::Num(AdamColocatedMaxFloats(q) / 1e6, 2),
      // Algorithm 1's comparison, against the PS row as actually sharded.
      PlannedSchemeName(SfbWins(q) ? PlannedScheme::kSFB : PlannedScheme::kPS),
  });
}

// --plan companion to the float-cost table. Under auto, each of the table's
// (layer, K, P) shapes runs through the CommPlanner's joint search as a
// one-layer model (byte basis) and the planner's scheme+codec+shards pick is
// printed next to Algorithm 1's float-basis "best" column. Under
// fixed:<path>, the dumped plan's per-layer table (`fixed`, loaded before
// any output) is printed instead — the table then documents what a planned
// run would actually put on the wire.
void PlanPart(const BenchArgs& args, const std::optional<CommPlan>& fixed,
              const std::vector<int>& workers) {
  if (fixed.has_value()) {
    std::printf("Fixed plan %s:\n%s\n", args.FixedPlanPath().c_str(),
                fixed->Summary().c_str());
    return;
  }
  if (!args.AutoPlan()) {
    return;
  }
  struct Shape {
    int64_t m, n, k;
  };
  const std::vector<Shape> shapes = {
      {4096, 4096, 32}, {4096, 25088, 32}, {21841, 4096, 32}, {1000, 1024, 128}};
  std::printf("CommPlanner joint choices (byte basis, shard cap 8):\n");
  TextTable table({"layer", "K", "P", "plan", "shards", "MB/iter"});
  for (const Shape& shape : shapes) {
    for (int p : workers) {
      if (p < 2) {
        continue;
      }
      ModelSpec model;
      model.name = "fc" + std::to_string(shape.m) + "x" + std::to_string(shape.n);
      model.default_batch = static_cast<int>(shape.k);
      model.layers = {FcLayer("fc", shape.m, shape.n)};
      const CommPlan plan =
          PlanComm(JointAutoRequest(model, p, /*nic_gbps=*/0.0, /*max_shards=*/8));
      const PlanLayerChoice& choice = plan.layers.front();
      std::string label = PlannedSchemeName(choice.scheme);
      if (choice.compression != GradCompression::kNone) {
        label += std::string("+") + GradCompressionName(choice.compression);
      }
      table.AddRow({std::to_string(shape.m) + "x" + std::to_string(shape.n),
                    std::to_string(shape.k), std::to_string(p), label,
                    std::to_string(plan.ps_shards),
                    TextTable::Num(plan.predicted_wire_bytes / 1e6, 2)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void Run(const BenchArgs& args) {
  // A --plan=fixed: file that does not load exits 2 before the table prints.
  std::optional<CommPlan> fixed;
  if (args.FixedPlan()) {
    fixed = LoadFixedPlanOrExit(args);
  }
  const int shards = args.FirstShardOr(1);
  std::printf("Table 1: communication cost model (millions of floats per iteration),\n");
  std::printf("PS rows at %d shard endpoint(s) per server.\n", shards);
  std::printf("Worked example from paper 3.2: 4096x4096 FC, K=32, P1=P2=8 -> PS worker 33.6M,\n");
  std::printf("server&worker 58.7M, SFB 3.7M (at 1 shard).\n\n");

  TextTable table({"layer", "K", "P", "PS.wrk", "PS.srv", "PS.both", "SFB.wrk", "Adam.srv",
                   "Adam.wrk", "Adam.both", "best"});
  // The worked example.
  PrintCostRow(&table, {4096, 4096, 32, 8, 8, shards});
  // Scale in P at fixed layer/batch.
  for (int p : args.NodesOr({2, 4, 16, 32})) {
    PrintCostRow(&table, {4096, 4096, 32, p, p, shards});
  }
  // The paper's real layers: VGG19 fc6, VGG19-22K fc8, GoogLeNet classifier.
  PrintCostRow(&table, {4096, 25088, 32, 8, 8, shards});
  PrintCostRow(&table, {21841, 4096, 32, 32, 32, shards});
  PrintCostRow(&table, {1000, 1024, 128, 4, 4, shards});
  PrintCostRow(&table, {1000, 1024, 128, 16, 16, shards});
  std::printf("%s\n", table.ToString().c_str());

  PlanPart(args, fixed, args.NodesOr({2, 4, 16, 32}));

  if (args.batch_egress) {
    // Wire-message companion to the float-cost table: per iteration a
    // worker's PS path sends one push per (layer, shard endpoint). The
    // egress batcher keys frames on the destination *node* — all of a
    // server's shard endpoints share frames — and cuts a frame every
    // max_batch_messages (default 16) entries, so the per-worker egress
    // drops from L*P2*S messages to P2 * ceil(L*S / max_batch_messages).
    // (Assumes pushes small enough that the byte cut does not bite; huge
    // layers cut frames earlier and land between the two columns.)
    const int kMaxBatchMessages = EgressBatchOptions{}.max_batch_messages;
    std::printf("Egress batching (modeled): per-worker PS push messages per iteration\n");
    TextTable msgs({"layers", "servers", "shards", "msgs", "msgs(batched)", "reduction"});
    for (int layers : {8, 20, 50}) {
      for (int servers : {8, 16}) {
        const int plain = layers * servers * shards;
        const int batched =
            servers * ((layers * shards + kMaxBatchMessages - 1) / kMaxBatchMessages);
        msgs.AddRow({std::to_string(layers), std::to_string(servers),
                     std::to_string(shards), std::to_string(plain),
                     std::to_string(batched),
                     TextTable::Num(static_cast<double>(plain) / batched, 1) + "x"});
      }
    }
    std::printf("%s\n", msgs.ToString().c_str());
  }
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  poseidon::InitBenchTelemetry(args);
  poseidon::Run(args);
  poseidon::FinishBenchTelemetry(args);
  return 0;
}
