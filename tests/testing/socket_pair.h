/// \file
/// A two-process socket cluster in miniature for transport-level tests: node
/// 0 on "process" 0, node 1 on "process" 1, each with its own MessageBus and
/// SocketTransport, full mesh over real loopback TCP or AF_UNIX sockets.
/// Control records are collected per process, and Barrier() turns the
/// stream's FIFO guarantee into a sync point: a control record sent after
/// Flush() is processed only after every previously written data record, so
/// counter assertions never race late retransmissions or duplicates.
#ifndef POSEIDON_TESTS_TESTING_SOCKET_PAIR_H_
#define POSEIDON_TESTS_TESTING_SOCKET_PAIR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/transport/bus.h"
#include "src/transport/socket_transport.h"

namespace poseidon {
namespace testing {

/// One control record as observed by a process's handler.
struct ControlEvent {
  int src = -1;
  uint16_t opcode = 0;
  std::vector<uint8_t> body;
};

class SocketBusPair {
 public:
  /// Binds both listeners, attaches transports to fresh 2-node buses, and
  /// dials the mesh. When `shim` has weather, both buses run their fault
  /// fabric with it, so frames are weathered on the way to the socket.
  /// CHECK-fails on any setup error.
  explicit SocketBusPair(bool unix_sockets, const FaultPlan& shim = {});
  ~SocketBusPair();

  SocketBusPair(const SocketBusPair&) = delete;
  SocketBusPair& operator=(const SocketBusPair&) = delete;

  MessageBus& bus(int p) { return *bus_[p]; }
  SocketTransport& transport(int p) { return *transport_[p]; }

  /// Blocks until process `p` has observed `count` control records total.
  bool AwaitControl(int p, size_t count, int timeout_ms = 10000);
  std::vector<ControlEvent> control(int p);

  /// Flushes `src`'s egress (fault pump holdback included) and round-trips one
  /// control record src -> dst: on return, every data record `src` sent
  /// before the barrier has been processed by `dst`'s bus.
  void Barrier(int src, int dst);

 private:
  std::string dir_;
  std::unique_ptr<MessageBus> bus_[2];
  std::shared_ptr<SocketTransport> transport_[2];
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<ControlEvent> control_[2];
};

}  // namespace testing
}  // namespace poseidon

#endif  // POSEIDON_TESTS_TESTING_SOCKET_PAIR_H_
