#include "tests/testing/socket_pair.h"

#include <chrono>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/transport/cluster_launcher.h"
#include "tests/testing/subprocess.h"

namespace poseidon {
namespace testing {
namespace {

/// Opcode reserved for Barrier round trips (cluster opcodes are small).
constexpr uint16_t kBarrierOpcode = 0x7FFF;

}  // namespace

SocketBusPair::SocketBusPair(bool unix_sockets, const FaultPlan& shim) {
  std::vector<SocketEndpoint> endpoints(2);
  std::vector<std::unique_ptr<ReservedTcpPort>> reserved;  // held until Start
  if (unix_sockets) {
    dir_ = MakeTempDir("socket_pair");
    for (int p = 0; p < 2; ++p) {
      endpoints[static_cast<size_t>(p)].unix_path =
          MakeUnixSocketPath(dir_, "pair", p);
    }
  } else {
    for (int p = 0; p < 2; ++p) {
      reserved.push_back(std::make_unique<ReservedTcpPort>());
      endpoints[static_cast<size_t>(p)].port = reserved.back()->port();
    }
  }
  for (int p = 0; p < 2; ++p) {
    SocketTransportOptions options;
    options.self = p;
    options.processes = endpoints;
    options.node_owner = {0, 1};
    bus_[p] = std::make_unique<MessageBus>(2);
    if (shim.any()) {
      bus_[p]->EnableFaultInjection(shim);
    }
    transport_[p] = std::make_shared<SocketTransport>(options);
    transport_[p]->SetControlHandler(
        [this, p](int src, uint16_t opcode, const std::vector<uint8_t>& body) {
          std::lock_guard<std::mutex> lock(mutex_);
          control_[p].push_back(ControlEvent{src, opcode, body});
          cv_.notify_all();
        });
    bus_[p]->AttachTransport(transport_[p]);
    const Status started = transport_[p]->Start(bus_[p].get());
    CHECK(started.ok()) << started.ToString();
  }
  for (int p = 0; p < 2; ++p) {
    const Status connected = transport_[p]->ConnectAll();
    CHECK(connected.ok()) << connected.ToString();
  }
}

SocketBusPair::~SocketBusPair() {
  for (int p = 0; p < 2; ++p) {
    bus_[p]->CloseAll();
    transport_[p]->Stop();
  }
}

bool SocketBusPair::AwaitControl(int p, size_t count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return control_[p].size() >= count; });
}

std::vector<ControlEvent> SocketBusPair::control(int p) {
  std::lock_guard<std::mutex> lock(mutex_);
  return control_[p];
}

void SocketBusPair::Barrier(int src, int dst) {
  bus_[src]->FlushEgress();
  size_t target = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    target = control_[dst].size() + 1;
  }
  CHECK(transport_[src]->SendControl(dst, kBarrierOpcode).ok());
  CHECK(AwaitControl(dst, target))
      << "barrier control record never arrived (stream wedged?)";
}

}  // namespace testing
}  // namespace poseidon
