/// \file
/// Per-stream sequencing: the correctness layer that makes a faulty network
/// look per-stream FIFO and exactly-once to every receiver.
///
/// A *stream* is one (from address, to address) pair — e.g. worker 2's
/// layer-3 syncer pushing to shard (0, 1). On a fault-free bus each stream
/// is trivially FIFO and duplicate-free (one sender thread, one queue); the
/// fault fabric breaks both properties, and this pair of classes restores
/// them:
///
///   * StreamSequencer (sender side) stamps each message with the stream's
///     next sequence number at Send() time.
///   * ReorderBuffer (receiver side, in front of the mailbox) releases
///     messages to the mailbox strictly in sequence order: duplicates
///     (seq already released, or already buffered) are dropped, and gaps
///     are bridged by buffering early arrivals until the missing seq lands
///     (the link layer retransmits drops, so every gap eventually fills).
///
/// Invariant (docs/FAULT_TOLERANCE.md): under any mix of duplication,
/// reordering and loss-with-retransmit, the message stream a consumer pops
/// per stream is byte-identical to the stream the sender pushed — which is
/// why chaos trajectories are bitwise identical to clean ones.
#ifndef POSEIDON_SRC_TRANSPORT_SEQUENCER_H_
#define POSEIDON_SRC_TRANSPORT_SEQUENCER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/stats/fault_counters.h"
#include "src/transport/message.h"

namespace poseidon {

/// Key identifying one unidirectional stream.
struct StreamKey {
  Address from;
  Address to;

  bool operator==(const StreamKey& other) const {
    return from == other.from && to == other.to;
  }
};

struct StreamKeyHash {
  size_t operator()(const StreamKey& key) const {
    AddressHash hash;
    return hash(key.from) * 1000003u + hash(key.to);
  }
};

/// Sender side: hands out consecutive sequence numbers per stream.
/// Thread-safe (senders on different threads may share a stream only through
/// the bus lock, but cheap to make safe outright).
class StreamSequencer {
 public:
  /// Returns the next sequence number (0-based) for `from -> to`.
  int64_t NextSeq(const Address& from, const Address& to);

 private:
  std::mutex mutex_;
  std::unordered_map<StreamKey, int64_t, StreamKeyHash> next_;
};

/// Receiver side: per-stream dedup and in-order release.
///
/// Admit() is called with every sequenced message the moment it would be
/// pushed to a mailbox. It returns the (possibly empty) run of messages that
/// are now in order and must be pushed, in sequence order. Unsequenced
/// messages (seq < 0) bypass the buffer entirely.
class ReorderBuffer {
 public:
  /// `max_buffered` bounds the per-stream holdback (a run further out of
  /// order than this is a protocol bug or a hostile peer, not network
  /// weather).
  explicit ReorderBuffer(FaultCounters* counters, int max_buffered = 4096)
      : counters_(counters), max_buffered_(max_buffered) {}

  /// Feeds one arrival; appends every releasable message to `out`. An
  /// arrival that would park beyond the stream's holdback bound is dropped,
  /// counted (FaultCounters overflows) and reported as OutOfRange;
  /// the stream keeps waiting for its missing sequence number.
  Status Admit(Message message, std::vector<Message>* out);

  /// Messages currently parked across all streams (tests).
  int64_t buffered() const;

 private:
  struct StreamState {
    int64_t next_expected = 0;
    std::map<int64_t, Message> parked;  // seq -> message, seq > next_expected
  };

  FaultCounters* counters_;
  const int max_buffered_;
  mutable std::mutex mutex_;
  std::unordered_map<StreamKey, StreamState, StreamKeyHash> streams_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_SEQUENCER_H_
