/// \file
/// The backend seam under MessageBus: where wire frames go once a
/// destination is not in this process.
///
/// The bus owns everything protocol-shaped — routing, sequencing, batching,
/// rate limits, link accounting, fault injection — and a Transport owns only
/// the physical question "how does an encoded frame reach another process?".
/// A bus with no transport attached keeps every node in this process and
/// never serializes a frame; that is how the in-process trainer and the
/// chaos/property suites run. The one backend, SocketTransport
/// (src/transport/socket_transport.h), maps nodes onto OS processes: frames
/// from docs/WIRE_FORMAT.md travel length-prefixed over TCP or Unix-domain
/// stream sockets.
///
/// Contract: a node's egress carrier (the one thread that drains the node's
/// queue at its egress limit) calls SendFrames() with the fully encoded wire
/// frames it admitted together for one destination node (src local, dst
/// remote per IsLocal), after it has done its own accounting, sequencing
/// and, when its fault fabric is on, weather. The transport writes them
/// before returning, in order, and the destination process hands the same
/// bytes to its bus via MessageBus::DeliverWire(). The fabric may hand over
/// a frame twice, late, or behind later frames — the receiving bus's reorder
/// buffer restores exactly-once FIFO per stream.
/// See docs/TRANSPORT.md.
#ifndef POSEIDON_SRC_TRANSPORT_TRANSPORT_H_
#define POSEIDON_SRC_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace poseidon {

/// Abstract frame writer under the bus. Implementations must be thread-safe:
/// every node's carrier and the fault pump call SendFrames concurrently.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Backend name for logs, bench records and test parameterization
  /// ("tcp", "unix").
  virtual const char* name() const = 0;

  /// True when `node`'s mailboxes live in this process, i.e. the bus should
  /// deliver directly instead of serializing. The answer must be constant
  /// for the lifetime of the transport (node placement is fixed at cluster
  /// construction).
  virtual bool IsLocal(int node) const = 0;

  /// Writes `frames` (each one encoded wire frame, message or batch, from
  /// `src_node` to `dst_node`) toward the process hosting `dst_node`, in
  /// order and in one write where the backend can, and returns once they
  /// have left this process. Cross-process *delivery* is not awaited.
  /// Returns Unavailable once the peer connection is down or the transport
  /// stopped.
  virtual Status SendFrames(int src_node, int dst_node,
                            std::vector<std::vector<uint8_t>> frames) = 0;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_TRANSPORT_H_
