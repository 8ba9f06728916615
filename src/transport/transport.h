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
/// Contract: the bus calls SendFrame() with a fully encoded wire frame
/// (src local, dst remote per IsLocal) after it has done its own accounting
/// and sequencing; the transport delivers the same bytes to the destination
/// process, which hands them to its bus via MessageBus::DeliverWire().
/// Delivery is at-least-once in-order per connection (a lossy shim may
/// duplicate or reorder records — the bus's wire reorder buffer restores
/// exactly-once FIFO per stream). See docs/TRANSPORT.md.
#ifndef POSEIDON_SRC_TRANSPORT_TRANSPORT_H_
#define POSEIDON_SRC_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace poseidon {

/// Abstract frame carrier under the bus. Implementations must be
/// thread-safe: the bus calls SendFrame concurrently from sender threads and
/// batch flushers.
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

  /// Ships one encoded wire frame (message or batch) toward the process
  /// hosting `dst_node`. Enqueue-and-return: actual socket writes happen on
  /// the destination's egress flusher. Returns Unavailable once the peer
  /// connection is down or the transport stopped.
  virtual Status SendFrame(int src_node, int dst_node,
                           std::vector<uint8_t> frame) = 0;

  /// Blocks until every frame accepted so far has left this process (written
  /// to the socket). Cross-process *delivery* is not awaited — only the
  /// local egress is drained.
  virtual void Flush() {}
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_TRANSPORT_H_
