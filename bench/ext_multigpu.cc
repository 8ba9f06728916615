// Extension experiment (paper §5.1 "Multi-GPU Settings"): scaling with
// multiple GPUs per node, where Poseidon aggregates gradients on a leader
// GPU over device-to-device copies before touching the NIC. Reproduces the
// reported AWS p2.8xlarge result: ~32x / ~28x speedup for GoogLeNet / VGG19
// on 4 nodes x 8 GPUs.
#include <cstdio>

#include "src/cluster/protocol_sim.h"
#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/models/zoo.h"

namespace poseidon {
namespace {

void Run(const BenchArgs& args) {
  const int nodes = args.FirstNodeOr(4);
  const double gbps = args.FirstGbpsOr(40.0);
  std::printf("Multi-GPU extension: speedup vs single GPU (Poseidon, %.0f GbE)\n\n", gbps);
  TextTable table({"model", "nodes", "gpus/node", "total gpus", "speedup"});
  const std::vector<int> gpu_counts =
      args.fast ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  for (const char* name : {"googlenet", "vgg19"}) {
    const ModelSpec model = ModelByName(name).value();
    for (int gpus : gpu_counts) {
      ClusterSpec cluster;
      cluster.num_nodes = nodes;
      cluster.nic_gbps = gbps;
      cluster.gpus_per_node = gpus;
      SystemConfig system = PoseidonSystem();
      system.request.batch_egress = args.batch_egress;  // --batch-egress ablation knob
      const SimResult result =
          RunProtocolSimulation(model, system, cluster, Engine::kCaffe);
      table.AddRow({model.name, std::to_string(nodes), std::to_string(gpus),
                    std::to_string(nodes * gpus), TextTable::Num(result.speedup, 1)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
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
