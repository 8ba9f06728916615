/// \file
/// Process-visible counters for the transport's fault-injection fabric.
///
/// Every injected fault increments exactly one counter at the moment the
/// fault is committed (not when it is decided), so after FlushEgress() the
/// counters describe what the network actually did to the byte stream. The
/// chaos tests assert on them both positively ("this run really did see
/// duplicates") and negatively ("nothing was deduplicated in a clean run").
///
/// Each MessageBus owns one FaultCounters instance, shared by its fault
/// fabric and its reorder buffer (per-bus isolation: two buses in one test
/// never mix their weather). The counters are built
/// on the stats::Counter metrics primitive, and every increment is also
/// mirrored into MetricsRegistry::Default() under "fault.*" so the process
/// metrics JSON carries aggregate fault totals alongside everything else.
#ifndef POSEIDON_SRC_STATS_FAULT_COUNTERS_H_
#define POSEIDON_SRC_STATS_FAULT_COUNTERS_H_

#include <cstdint>
#include <string>

#include "src/stats/metrics.h"

namespace poseidon {

/// Plain-value snapshot of FaultCounters, safe to copy and compare.
struct FaultCountersSnapshot {
  int64_t drops = 0;            ///< wire transmissions lost (later retransmitted)
  int64_t retransmits = 0;      ///< link-layer redeliveries of dropped messages
  int64_t duplicates = 0;       ///< extra copies injected on the wire
  int64_t delays = 0;           ///< messages held back by a delay fault
  int64_t partition_holds = 0;  ///< messages parked behind an active partition
  int64_t deduped = 0;          ///< receiver-side duplicate suppressions
  int64_t reordered = 0;        ///< arrivals buffered because an earlier seq was missing
  int64_t dropped_replies = 0;  ///< sends to an endpoint that died (crash window)
  int64_t overflows = 0;        ///< arrivals refused: their stream's holdback was full

  int64_t TotalInjected() const {
    return drops + duplicates + delays + partition_holds;
  }
};

/// Monotonic counters, one set per MessageBus.
/// Backed by the metrics registry primitives; see file comment.
class FaultCounters {
 public:
  FaultCounters();

  void AddDrop() { Bump(drops_, global_drops_); }
  void AddRetransmit() { Bump(retransmits_, global_retransmits_); }
  void AddDuplicate() { Bump(duplicates_, global_duplicates_); }
  void AddDelay() { Bump(delays_, global_delays_); }
  void AddPartitionHold() { Bump(partition_holds_, global_partition_holds_); }
  void AddDeduped() { Bump(deduped_, global_deduped_); }
  void AddReordered() { Bump(reordered_, global_reordered_); }
  void AddDroppedReply() { Bump(dropped_replies_, global_dropped_replies_); }
  void AddOverflow() { Bump(overflows_, global_overflows_); }

  FaultCountersSnapshot Snapshot() const {
    FaultCountersSnapshot snap;
    snap.drops = drops_.Value();
    snap.retransmits = retransmits_.Value();
    snap.duplicates = duplicates_.Value();
    snap.delays = delays_.Value();
    snap.partition_holds = partition_holds_.Value();
    snap.deduped = deduped_.Value();
    snap.reordered = reordered_.Value();
    snap.dropped_replies = dropped_replies_.Value();
    snap.overflows = overflows_.Value();
    return snap;
  }

 private:
  static void Bump(Counter& local, Counter* global) {
    local.Add();
    global->Add();
  }

  Counter drops_;
  Counter retransmits_;
  Counter duplicates_;
  Counter delays_;
  Counter partition_holds_;
  Counter deduped_;
  Counter reordered_;
  Counter dropped_replies_;
  Counter overflows_;

  // Cached handles into MetricsRegistry::Default() ("fault.*"), shared by
  // every FaultCounters instance in the process.
  Counter* global_drops_;
  Counter* global_retransmits_;
  Counter* global_duplicates_;
  Counter* global_delays_;
  Counter* global_partition_holds_;
  Counter* global_deduped_;
  Counter* global_reordered_;
  Counter* global_dropped_replies_;
  Counter* global_overflows_;
};

/// One-line human-readable rendering for bench output and test failures.
std::string FormatFaultCounters(const FaultCountersSnapshot& snap);

}  // namespace poseidon

#endif  // POSEIDON_SRC_STATS_FAULT_COUNTERS_H_
