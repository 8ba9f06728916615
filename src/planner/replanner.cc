#include "src/planner/replanner.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/common/logging.h"

namespace poseidon {

Replanner::Replanner(PlanRequest base, ReplanOptions options)
    : base_(std::move(base)), options_(options), reference_gbps_(base_.nic_gbps) {
  CHECK_GT(options_.hysteresis, 0.0);
}

double Replanner::ObservedGbps(const ObservedLinkStats& window, double min_window_s) {
  if (window.window_s < min_window_s) {
    return 0.0;
  }
  std::unordered_map<int, int64_t> egress_bytes;
  for (const LinkStat& link : window.links) {
    egress_bytes[link.src] += link.bytes;
  }
  int64_t busiest = 0;
  for (const auto& [src, bytes] : egress_bytes) {
    busiest = std::max(busiest, bytes);
  }
  return static_cast<double>(busiest) * 8.0 / 1e9 / window.window_s;
}

ReplanDecision Replanner::Observe(const ObservedLinkStats& window) {
  ReplanDecision decision;
  decision.observed_gbps = ObservedGbps(window, options_.min_window_s);
  if (decision.observed_gbps < options_.min_gbps) {
    return decision;  // idle window: no evidence either way
  }
  if (reference_gbps_ <= 0.0) {
    // Byte-basis plan: the first live window calibrates the reference; the
    // plan itself made no bandwidth assumption, so there is nothing to
    // diverge from yet.
    reference_gbps_ = decision.observed_gbps;
    return decision;
  }
  decision.divergence = std::abs(decision.observed_gbps / reference_gbps_ - 1.0);
  if (decision.divergence <= options_.hysteresis) {
    return decision;
  }
  decision.replan = true;
  base_.nic_gbps = decision.observed_gbps;
  reference_gbps_ = decision.observed_gbps;
  decision.plan = std::make_shared<const CommPlan>(PlanComm(base_));
  return decision;
}

}  // namespace poseidon
