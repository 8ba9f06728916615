#include "src/cluster/system_config.h"

#include <string>
#include <utility>

namespace poseidon {
namespace {

SystemConfig MakeSystem(std::string name, OverlapMode overlap, PlanPolicy policy) {
  SystemConfig config;
  config.name = std::move(name);
  config.overlap = overlap;
  config.request.policy = policy;
  return config;
}

}  // namespace

SystemConfig CaffePlusPs() {
  return MakeSystem("Caffe+PS", OverlapMode::kNone, PlanPolicy::kDense);
}

SystemConfig CaffePlusWfbp() {
  return MakeSystem("Caffe+WFBP", OverlapMode::kWfbp, PlanPolicy::kDense);
}

SystemConfig PoseidonSystem() {
  return MakeSystem("Poseidon", OverlapMode::kWfbp, PlanPolicy::kHybrid);
}

SystemConfig TfNative() {
  SystemConfig config = MakeSystem("TF", OverlapMode::kTfFetch, PlanPolicy::kDense);
  config.sharding = ShardingMode::kPerTensor;
  config.transport_efficiency = 0.3;  // gRPC goodput, r0.10 era
  return config;
}

SystemConfig TfPlusWfbp() { return MakeSystem("TF+WFBP", OverlapMode::kWfbp, PlanPolicy::kDense); }

SystemConfig AdamSystem() {
  SystemConfig config = MakeSystem("Adam", OverlapMode::kWfbp, PlanPolicy::kDense);
  config.adam = true;
  return config;
}

SystemConfig OneBitSystem() {
  return MakeSystem("CNTK-1bit", OverlapMode::kWfbp, PlanPolicy::kOneBit);
}

SystemConfig SfbOnlySystem() { return MakeSystem("SFB", OverlapMode::kWfbp, PlanPolicy::kSfb); }

SystemConfig RingAllreduceSystem() {
  return MakeSystem("Ring", OverlapMode::kWfbp, PlanPolicy::kRingAllreduce);
}

SystemConfig TreeAllreduceSystem() {
  return MakeSystem("Tree", OverlapMode::kWfbp, PlanPolicy::kTreeAllreduce);
}

SystemConfig HybridCollectiveSystem() {
  return MakeSystem("Poseidon++", OverlapMode::kWfbp, PlanPolicy::kAuto);
}

SystemConfig ShardedPsSystem(int shards, int staleness) {
  SystemConfig config = CaffePlusWfbp();
  config.name = "PS-s" + std::to_string(shards) +
                (staleness > 0 ? "-ssp" + std::to_string(staleness) : "");
  config.request.ps_shards_pinned = shards;
  config.request.staleness = staleness;
  return config;
}

SystemConfig SspPoseidonSystem(int staleness, int shards) {
  SystemConfig config = PoseidonSystem();
  config.name = "Poseidon-ssp" + std::to_string(staleness) +
                (shards > 1 ? "-s" + std::to_string(shards) : "");
  config.request.ps_shards_pinned = shards;
  config.request.staleness = staleness;
  return config;
}

SystemConfig CompressedPsSystem(PlanCodecPolicy codec, double topk_density) {
  SystemConfig config = CaffePlusWfbp();
  config.name = std::string("PS-") + PlanCodecPolicyName(codec);
  config.request.codec = codec;
  config.request.topk_density = topk_density;
  return config;
}

SystemConfig PlannedSystem(std::shared_ptr<const CommPlan> plan) {
  SystemConfig config = PoseidonSystem();
  config.name = "Planned";
  config.plan = std::move(plan);
  return config;
}

}  // namespace poseidon
