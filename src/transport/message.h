/// \file
/// Wire messages exchanged by Poseidon's client libraries and KV stores.
///
/// The in-process transport moves real payloads (gradient chunks, sufficient
/// factors, 1-bit encodings) between worker and server threads, so the
/// concurrent behaviour of the §4 architecture — BSP count vectors, per-layer
/// syncers, multi-threaded communication — is exercised for real, not just
/// simulated.
///
/// Messages are zero-copy: every payload is a PayloadView into a refcounted
/// slab (see src/transport/payload.h), tagged with the WireCodec that
/// serialized it. A broadcast shares one slab across all receivers, and a
/// shard-coalesced push references the sender's staging slab per KV pair
/// without per-pair copies. Framing sizes below feed the traffic accounting
/// and the egress batcher (docs/WIRE_FORMAT.md documents the full layout).
#ifndef POSEIDON_SRC_TRANSPORT_MESSAGE_H_
#define POSEIDON_SRC_TRANSPORT_MESSAGE_H_

#include <cstdint>
#include <vector>

#include "src/transport/codec.h"
#include "src/transport/payload.h"

namespace poseidon {

/// Transport-level address. Server shard s listens on {node, kServerPort + s}
/// (ports [0, kSyncerPortBase) are reserved for shard endpoints, so a server
/// node can host up to 1000 key-range shards); each worker-side syncer has a
/// mailbox at {node, kSyncerPortBase + layer}.
struct Address {
  int node = 0;
  int port = 0;

  bool operator==(const Address& other) const {
    return node == other.node && port == other.port;
  }
};

inline constexpr int kServerPort = 0;
inline constexpr int kSyncerPortBase = 1000;
inline constexpr int kMaxShardsPerServer = kSyncerPortBase;  ///< shard port space

/// The mailbox address of shard `shard` on server node `server`.
inline Address ServerShardAddress(int server, int shard) {
  return Address{server, kServerPort + shard};
}
/// Collective-communication mailboxes live in their own port space so a
/// layer's collective participant never collides with its PS-style syncer
/// mailbox: {node, kCollectivePortBase + tag} where tag is the layer index.
inline constexpr int kCollectivePortBase = 1000000;
/// The failure detector's mailbox lives above every data-plane port: workers
/// heartbeat to {monitor node, kMonitorPort} (see
/// src/poseidon/failure_detector.h).
inline constexpr int kMonitorPort = 2000000;

struct AddressHash {
  size_t operator()(const Address& a) const {
    return static_cast<size_t>(a.node) * 1000003u + static_cast<size_t>(a.port);
  }
};

enum class MessageType {
  kGradPush,    ///< worker -> server: gradient chunks of one layer
  kParamReply,  ///< server -> worker: updated parameter chunks
  kSfBroadcast, ///< worker -> peer: sufficient-factor frame (bias included)
  kOneBitPush,  ///< worker -> server: 1-bit frame (bias included)
  kCollective,  ///< peer -> peer: one hop of a ring/tree collective
  kHeartbeat,   ///< worker -> failure detector: liveness beacon
  kShutdown,    ///< trainer -> server: stop serving
  /// client library -> its own syncer loop: the layer's gradient is ready
  /// to send. Local only: never routed by the bus, and the wire decoder
  /// rejects its code.
  kLayerReady,
};

/// Per-wire-message framing overhead (type, addresses, layer/worker/iter/
/// step/codec headers).
inline constexpr int64_t kWireFrameBytes = 32;
/// Per-chunk header within a message (offset + length).
inline constexpr int64_t kWireChunkHeaderBytes = 16;
/// Per-sub-message header inside a batched frame (see MessageBus batching):
/// the batch carries from/iter once, each entry keeps its own to-port,
/// type, layer, worker and step.
inline constexpr int64_t kBatchEntryHeaderBytes = 12;

/// One encoded span of a layer's flattened parameter space: `offset` floats
/// into the layer (raw-float chunks; self-describing codec frames use 0)
/// and a view into the slab holding the encoded words.
struct WireChunk {
  int64_t offset = 0;
  PayloadView view;
};

struct Message {
  MessageType type = MessageType::kShutdown;
  Address from;
  Address to;
  int layer = -1;
  int worker = -1;   ///< originating worker id
  int64_t iter = -1;
  /// Collective protocol step: ring hop index (0..2(P-1)-1), or the tree
  /// phase (kTreeReduceStep / kTreeBroadcastStep). Unused otherwise.
  int step = -1;
  /// Per-stream sequence number, assigned by the bus when fault injection is
  /// on (a "stream" is one (from address, to address) pair). -1 means
  /// unsequenced: local traffic, shutdowns, and all traffic on a fault-free
  /// bus. The receiver-side reorder buffer uses it to deduplicate and
  /// re-order deliveries (see src/transport/sequencer.h); it rides in the
  /// existing kWireFrameBytes header budget.
  int64_t seq = -1;

  /// Steady-clock ns at which the bus accepted this message for a remote
  /// destination, stamped only while link stats are enabled (see
  /// MessageBus::EnableLinkStats). 0 means unstamped. Transport metadata
  /// like a NIC hardware timestamp — not part of the accounted wire bytes.
  int64_t send_ns = 0;

  /// Codec that serialized every chunk in this message.
  WireCodec codec = WireCodec::kRawFloat;
  std::vector<WireChunk> chunks;

  /// Approximate wire size including framing, for traffic accounting.
  int64_t WireBytes() const;
  /// Chunk headers + encoded words only (what a batched frame carries per
  /// entry, the message-level frame being shared).
  int64_t PayloadBytes() const;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_MESSAGE_H_
