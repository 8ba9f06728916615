/// \file
/// Bandwidth-feedback re-planning: turns windowed link-stats snapshots
/// (MessageBus::SnapshotLinkStatsDelta) into plan swaps. The Replanner owns a
/// base PlanRequest; each observation window it derives the busiest-node
/// egress bandwidth, compares it against the bandwidth the current plan was
/// costed at, and when the divergence exceeds a hysteresis threshold re-plans
/// the request at the observed bandwidth with PlanComm. The caller
/// (Trainer) applies the returned plan only at an iteration boundary, so
/// trajectories stay deterministic given the same swap schedule.
///
/// The Replanner itself is deliberately bus-free — it consumes
/// ObservedLinkStats values, so tests can drive it with synthetic windows.
#ifndef POSEIDON_SRC_PLANNER_REPLANNER_H_
#define POSEIDON_SRC_PLANNER_REPLANNER_H_

#include <memory>

#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"
#include "src/transport/bus.h"

namespace poseidon {

struct ReplanOptions {
  /// Re-plan when |observed / planned - 1| exceeds this. 0.3 keeps ordinary
  /// contention jitter from thrashing plans; tests use tighter values.
  double hysteresis = 0.3;
  /// Windows shorter than this are noise (a clock tick apart) and ignored.
  double min_window_s = 1e-6;
  /// Observed bandwidths below this are idle windows and ignored.
  double min_gbps = 1e-3;
};

/// One observation window's verdict.
struct ReplanDecision {
  bool replan = false;
  double observed_gbps = 0.0;  ///< busiest-node egress bandwidth, 0 if idle
  double divergence = 0.0;     ///< |observed / reference - 1|
  /// The re-planned plan when `replan`; nullptr otherwise.
  std::shared_ptr<const CommPlan> plan;
};

class Replanner {
 public:
  /// `base` is re-planned (only nic_gbps changes) on every re-plan. When
  /// `base.nic_gbps` is 0 (byte-basis plan, no bandwidth assumption), the
  /// first non-idle window calibrates the reference without re-planning.
  Replanner(PlanRequest base, ReplanOptions options);

  /// Feeds one windowed snapshot; deterministic given the same sequence of
  /// windows (no internal clocks or RNG).
  ReplanDecision Observe(const ObservedLinkStats& window);

  /// Busiest-node egress bandwidth of `window` (max over source nodes of
  /// summed outbound bytes), or 0 for idle/degenerate windows.
  static double ObservedGbps(const ObservedLinkStats& window, double min_window_s);

  double reference_gbps() const { return reference_gbps_; }
  const PlanRequest& request() const { return base_; }

 private:
  PlanRequest base_;
  ReplanOptions options_;
  double reference_gbps_;  // bandwidth the current plan is costed at
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_PLANNER_REPLANNER_H_
