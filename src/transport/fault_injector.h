/// \file
/// Deterministic, seeded fault decisions for the live transport.
///
/// This class stands in for everything that can go wrong underneath the
/// MessageBus, whichever carrier ships its traffic. For every transmission
/// the carrier makes — a logical message in process, an encoded frame bound
/// for a socket transport — it decides, deterministically from (seed,
/// stream, seq, attempt) alone, whether the transmission is dropped,
/// duplicated, or delayed, so a chaos run is bit-reproducible from its seed
/// no matter how the sender threads interleave. A wire frame is keyed by its
/// first entry: every sequenced entry has a unique (stream, seq), so the key
/// is unique per frame without a per-connection record counter.
///
/// Failure model (docs/FAULT_TOLERANCE.md):
///   * drop       — the transmission is lost. The bus models a reliable link
///     layer (TCP-style): the loss is counted, and the same message (same
///     seq) is retransmitted after `retransmit_timeout_us`. A retransmission
///     rolls fresh fault dice (salted with the attempt number), so repeated
///     loss is possible but terminates almost surely for drop_prob < 1.
///   * duplicate  — a second copy is committed `duplicate_lag_us` later
///     (models retransmit-after-spurious-timeout). The receiver's dedup
///     layer suppresses it.
///   * delay      — delivery is held back uniformly in
///     [delay_min_us, delay_max_us]. Undelayed messages sent later overtake
///     it: this is how reordering happens, exactly as on a real network.
///   * partition  — an (a, b) node pair is unreachable in both directions;
///     traffic is parked (the link layer keeps retrying) and flows when the
///     partition heals.
///
/// Faults apply to remote data-plane traffic only: node-local sends never
/// touch the NIC, and kShutdown control messages (and any frame carrying
/// one) are exempt so teardown stays orderly. The bus owns the fault pump
/// that serves held transmissions and the counters (MessageBus::FaultCounts).
#ifndef POSEIDON_SRC_TRANSPORT_FAULT_INJECTOR_H_
#define POSEIDON_SRC_TRANSPORT_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <utility>

#include "src/transport/message.h"

namespace poseidon {

/// Knobs for one chaos run. Probabilities are per wire transmission.
struct FaultPlan {
  uint64_t seed = 1;
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  int delay_min_us = 0;
  int delay_max_us = 500;
  /// Lag before a duplicate copy is committed.
  int duplicate_lag_us = 50;
  /// Link-layer retransmit timeout after a drop.
  int retransmit_timeout_us = 300;
  /// Safety valve: after this many consecutive losses of one message the
  /// next retransmission is forced through (a real RTO backoff would have
  /// succeeded long before).
  int max_transmissions = 16;

  bool any() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0;
  }
};

/// What the injector decided for one transmission attempt.
struct FaultDecision {
  bool drop = false;       ///< lose this attempt; retransmit after the RTO
  bool duplicate = false;  ///< commit a second copy after duplicate_lag_us
  int delay_us = 0;        ///< hold delivery back this long (0 = deliver now)
};

/// Pure decision function plus partition state. Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// Decides the fate of transmission attempt `attempt` (0 = first) of the
  /// message. Deterministic in (plan.seed, from, to, seq, attempt). Counts
  /// nothing: the bus counts when it commits the fault.
  FaultDecision Decide(const Message& message, int attempt) const;

  /// Cuts both directions between nodes `a` and `b`. Idempotent.
  void Partition(int a, int b);
  /// Restores every cut link.
  void HealAll();
  /// True while `src` -> `dst` traffic must be parked.
  bool IsPartitioned(int src, int dst) const;

 private:
  const FaultPlan plan_;
  mutable std::mutex mutex_;
  std::set<std::pair<int, int>> partitions_;  // normalized (min, max) pairs
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_FAULT_INJECTOR_H_
