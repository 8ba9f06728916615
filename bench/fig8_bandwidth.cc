// Regenerates Figure 8: throughput speedup under limited per-node bandwidth
// (Caffe engine), comparing Caffe+WFBP (pure PS) against Poseidon
// (HybComm): GoogLeNet at 2/5/10 GbE, VGG19 and VGG19-22K at 10/20/30 GbE,
// on 1-16 nodes.
//
// Expected shape (paper): at 10 GbE a PS-only system reaches ~8x on VGG19 at
// 16 nodes while Poseidon stays near-linear; Poseidon never does worse than
// PS because HybComm falls back to it (GoogLeNet at 16 nodes reduces to pure
// PS).
#include <cstdio>
#include <string>

#include "src/common/cli.h"
#include "src/models/zoo.h"
#include "src/stats/bench_record.h"
#include "src/stats/report.h"
#include "src/transport/socket_bench.h"

namespace poseidon {
namespace {

struct Config {
  const char* model;
  std::vector<double> gbps;
};

// `measured_gbps` > 0 is the live socket probe's payload bandwidth
// (--transport=tcp|unix); it rides the sweep as an extra bandwidth point so
// the modeled tables include what this machine's sockets actually achieve.
void Run(const BenchArgs& args, double measured_gbps) {
  const std::vector<int> nodes = args.NodesOr({1, 2, 4, 8, 16});
  // PS serve paths are costed at the configured shard count (--shards,
  // default 1 = the paper's single-endpoint servers), matching the
  // multi-shard cost rows in table1_comm_cost/ext_shards.
  const int shards = args.FirstShardOr(1);
  SystemConfig ps = CaffePlusWfbp();
  SystemConfig poseidon_sys = PoseidonSystem();
  ps.request.ps_shards_pinned = shards;
  poseidon_sys.request.ps_shards_pinned = shards;
  // --batch-egress: same-destination wire messages share one frame (the
  // transport's egress batcher, modeled); ablation table printed below.
  ps.request.batch_egress = args.batch_egress;
  poseidon_sys.request.batch_egress = args.batch_egress;
  if (shards > 1) {
    ps.name += "-s" + std::to_string(shards);
    poseidon_sys.name += "-s" + std::to_string(shards);
  }
  if (args.batch_egress) {
    ps.name += "-be";
    poseidon_sys.name += "-be";
  }
  const std::vector<Config> configs = {
      {"googlenet", {2.0, 5.0, 10.0}},
      {"vgg19", {10.0, 20.0, 30.0}},
      {"vgg19-22k", {10.0, 20.0, 30.0}},
  };
  for (const Config& config : configs) {
    const ModelSpec model = ModelByName(config.model).value();
    std::vector<double> sweep = args.GbpsOr(config.gbps);
    if (measured_gbps > 0.0) {
      sweep.push_back(measured_gbps);
    }
    for (double gbps : sweep) {
      // --plan=auto|fixed: replaces the hand-picked shard/batching stack
      // above with the CommPlanner's (or the dumped plan's) configuration.
      const auto results = RunPlannedScalingSweep(args, model, {ps, poseidon_sys}, nodes,
                                                  gbps, Engine::kCaffe);
      char title[128];
      std::snprintf(title, sizeof(title), "Fig 8: %s @ %.0f GbE (Caffe engine)",
                    model.name.c_str(), gbps);
      std::printf("%s\n", FormatSpeedupTable(title, results).c_str());
    }
    const std::string plan_summary =
        FormatPlanSummary(args, model, nodes.back(), sweep.front());
    if (!plan_summary.empty()) {
      std::printf("%s\n", plan_summary.c_str());
    }
    if (args.batch_egress) {
      std::printf("%s\n",
                  FormatBatchAblation("Egress-batcher ablation: " + model.name, model, ps,
                                      nodes, args.GbpsOr(config.gbps).front(),
                                      Engine::kCaffe)
                      .c_str());
    }
  }
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  poseidon::InitBenchTelemetry(args);
  poseidon::BenchRecord record("fig8_bandwidth");
  const double measured_gbps = poseidon::MeasureTransportForBench(args, &record);
  poseidon::Run(args, measured_gbps);
  poseidon::FinishBenchTelemetry(args, &record);
  return 0;
}
