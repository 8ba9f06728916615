#include "src/stats/fault_counters.h"

#include <sstream>

namespace poseidon {

FaultCounters::FaultCounters() {
  MetricsRegistry& registry = MetricsRegistry::Default();
  global_drops_ = registry.GetCounter("fault.drops");
  global_retransmits_ = registry.GetCounter("fault.retransmits");
  global_duplicates_ = registry.GetCounter("fault.duplicates");
  global_delays_ = registry.GetCounter("fault.delays");
  global_partition_holds_ = registry.GetCounter("fault.partition_holds");
  global_deduped_ = registry.GetCounter("fault.deduped");
  global_reordered_ = registry.GetCounter("fault.reordered");
  global_dropped_replies_ = registry.GetCounter("fault.dropped_replies");
  global_overflows_ = registry.GetCounter("fault.overflows");
}

std::string FormatFaultCounters(const FaultCountersSnapshot& snap) {
  std::ostringstream out;
  out << "faults{drops=" << snap.drops << " retx=" << snap.retransmits
      << " dups=" << snap.duplicates << " delays=" << snap.delays
      << " partition_holds=" << snap.partition_holds << " deduped=" << snap.deduped
      << " reordered=" << snap.reordered << " dropped_replies=" << snap.dropped_replies
      << " overflows=" << snap.overflows << "}";
  return out.str();
}

}  // namespace poseidon
