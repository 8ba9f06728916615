/// \file
/// TCP / Unix-domain socket backend for the Transport seam: real OS
/// processes exchanging the exact docs/WIRE_FORMAT.md frames the in-process
/// bus accounts for.
///
/// Topology: a cluster is N processes, each hosting one or more bus nodes
/// (`node_owner[node]` = process index). Every process listens on one
/// endpoint (TCP loopback/host port, or a Unix socket path) and dials one
/// egress connection to every other process — a full mesh where, per peer,
///   * the dialed connection carries this process's egress only. It has
///     no thread of its own: the bus's node carriers (and its fault pump)
///     write to it synchronously, one writev-style sendmsg per group of
///     frames a carrier admitted together (many records per syscall, never
///     one write per message), under a per-peer write mutex, and
///   * accepted connections carry ingress only, served by a single poll
///     thread (nonblocking accept + level-triggered poll, incremental
///     record reassembly) that hands complete data records to
///     MessageBus::DeliverWire and control records to the registered
///     handler.
///
/// Stream records: each record is [u32 body bytes][u8 version][u8 kind]
/// [u16 src process] + body. kData bodies are wire frames byte-for-byte;
/// the 8-byte record header is transport overhead outside the accounted
/// WireBytes, like an Ethernet preamble. kControl bodies are
/// [u16 opcode] + payload and carry the rendezvous protocol
/// (src/transport/cluster_launcher.h).
///
/// The transport injects no weather of its own: it writes what it is given,
/// in order. Seeded socket chaos is the bus's fault fabric
/// (MessageBus::EnableFaultInjection), which drops, duplicates, delays and
/// partitions frames before they reach SendFrames, so the sequencer
/// properties are exercised against genuinely reordered, duplicated and
/// retransmitted socket traffic (docs/TRANSPORT.md).
#ifndef POSEIDON_SRC_TRANSPORT_SOCKET_TRANSPORT_H_
#define POSEIDON_SRC_TRANSPORT_SOCKET_TRANSPORT_H_

#include <sys/uio.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/transport/transport.h"

namespace poseidon {

class MessageBus;

/// Where one process listens. `unix_path` non-empty selects an AF_UNIX
/// stream socket (host/port ignored); otherwise TCP on host:port.
struct SocketEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string unix_path;

  bool is_unix() const { return !unix_path.empty(); }
};

/// Record kinds on the byte stream.
enum class SocketRecordKind : uint8_t {
  kData = 0,     ///< body = one wire frame (message or batch)
  kControl = 1,  ///< body = u16 opcode + payload (rendezvous protocol)
};

/// Fixed stream overhead per record (u32 length, u8 version, u8 kind,
/// u16 src process).
inline constexpr int64_t kSocketRecordHeaderBytes = 8;
inline constexpr uint8_t kSocketRecordVersion = 1;

struct SocketTransportOptions {
  /// This process's index into `processes`.
  int self = 0;
  /// Listen endpoint per process, cluster-wide (every process gets the same
  /// table; rendezvous is just "everyone knows everyone's port").
  std::vector<SocketEndpoint> processes;
  /// Bus node id -> owning process index. Size = number of bus nodes.
  std::vector<int> node_owner;
  /// How long ConnectAll keeps retrying a refused peer before giving up
  /// (peers start in arbitrary order; refusal just means "not up yet").
  int connect_timeout_ms = 20000;
  /// Upper bound on one record body; larger ingress records are a protocol
  /// error (guards the reassembly buffer against corrupt length prefixes).
  int64_t max_record_bytes = 256ll << 20;
};

/// Receives control-plane records: (source process, opcode, body after the
/// opcode). Runs on the poll thread — handlers must not block on ingress.
using SocketControlHandler =
    std::function<void(int src_process, uint16_t opcode,
                       const std::vector<uint8_t>& body)>;

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Must be set before Start (the poll thread reads it unsynchronized).
  void SetControlHandler(SocketControlHandler handler);

  /// Binds + listens on our endpoint and starts the ingress poll thread.
  /// Data records are delivered into `bus` (DeliverWire). When our endpoint
  /// has port 0 (TCP), the kernel picks one — see listen_port().
  Status Start(MessageBus* bus);

  /// Dials every other process, retrying refusals until connect_timeout_ms.
  /// Call after every process has had Start() invoked (the launcher
  /// guarantees this by publishing the endpoint table only after binding all
  /// listeners).
  Status ConnectAll();

  /// The port we actually listen on (after Start; = endpoint port unless it
  /// was 0). Unix endpoints return 0.
  int listen_port() const { return listen_port_; }

  /// Shuts down every egress socket for writing (a writer blocked on a full
  /// socket returns), stops the poll thread, closes every socket, unlinks
  /// our Unix path. Later writes return Unavailable. Idempotent; called by
  /// the destructor.
  void Stop();

  /// Writes a control record to `dst_process` on the caller's thread
  /// (reliable: the bus's fault fabric never sees it). To self is delivered
  /// inline.
  Status SendControl(int dst_process, uint16_t opcode,
                     std::vector<uint8_t> body = {});

  // Transport interface -----------------------------------------------------
  const char* name() const override;
  bool IsLocal(int node) const override;
  Status SendFrames(int src_node, int dst_node,
                    std::vector<std::vector<uint8_t>> frames) override;

  // Introspection -----------------------------------------------------------
  int self() const { return options_.self; }
  int num_processes() const { return static_cast<int>(options_.processes.size()); }
  int64_t records_sent() const;
  int64_t records_received() const;
  int64_t bytes_sent() const;
  int64_t bytes_received() const;

 private:
  /// Egress connection toward one peer process. Writers hold `mutex` for a
  /// whole write so records never interleave on the stream.
  struct Peer {
    std::mutex mutex;
    int fd = -1;
    bool dead = false;  // write error: peer is gone
  };

  /// Ingress reassembly state for one accepted connection.
  struct Ingress {
    int fd = -1;
    std::vector<uint8_t> buffer;
  };

  /// The record header announcing `body_bytes` of `kind`.
  std::array<uint8_t, kSocketRecordHeaderBytes> RecordHeader(SocketRecordKind kind,
                                                            size_t body_bytes) const;
  /// Writes `records` (each a run of iovecs: header, then body pieces) to
  /// `dst_process` in one gathered write; Unavailable once that connection
  /// is down or the transport stopped.
  Status Write(int dst_process, std::vector<iovec> iov, int64_t records);
  void PollLoop();
  /// Parses complete records out of `in.buffer`; returns false on a protocol
  /// error — unknown version or kind, or a length over max_record_bytes —
  /// and the connection is then dropped.
  bool DrainIngress(Ingress& in);
  void HandleRecord(SocketRecordKind kind, uint16_t src_process, const uint8_t* body,
                    int64_t size);
  Status DialPeer(int peer_index);
  void WakeOnSelfPipe();

  const SocketTransportOptions options_;
  SocketControlHandler control_handler_;
  MessageBus* bus_ = nullptr;

  int listen_fd_ = -1;
  int listen_port_ = 0;
  int wake_pipe_[2] = {-1, -1};  // poll-thread wakeup for Stop
  std::thread poll_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::vector<std::unique_ptr<Peer>> peers_;  // indexed by process, self unused

  std::atomic<int64_t> records_sent_{0};
  std::atomic<int64_t> records_received_{0};
  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> bytes_received_{0};
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_SOCKET_TRANSPORT_H_
