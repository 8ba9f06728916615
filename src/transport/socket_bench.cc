#include "src/transport/socket_bench.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/stats/bench_record.h"
#include "src/transport/bus.h"
#include "src/transport/cluster_launcher.h"
#include "src/transport/message.h"
#include "src/transport/payload.h"
#include "src/transport/socket_transport.h"

namespace poseidon {
namespace {

// Runs its action on every scope exit — early error returns included — so
// the bench can never leave the /tmp socket directory behind.
class ScopeExit {
 public:
  explicit ScopeExit(std::function<void()> action) : action_(std::move(action)) {}
  ~ScopeExit() { action_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  std::function<void()> action_;
};

}  // namespace

StatusOr<SocketBandwidthResult> MeasureSocketBandwidth(
    const SocketBandwidthOptions& options) {
  if (options.payload_floats <= 0 || options.frames <= 0) {
    return InvalidArgumentError("socket bench needs positive floats and frames");
  }

  std::vector<SocketEndpoint> endpoints(2);
  std::vector<std::unique_ptr<ReservedTcpPort>> reserved;  // until both listen
  std::string dir;
  if (options.unix_sockets) {
    char tmpl[] = "/tmp/poseidon_sockbench_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      return InternalError("mkdtemp failed for unix socket dir");
    }
    dir = tmpl;
    for (int p = 0; p < 2; ++p) {
      endpoints[static_cast<size_t>(p)].unix_path =
          MakeUnixSocketPath(dir, "bench", p);
    }
  } else {
    for (int p = 0; p < 2; ++p) {
      reserved.push_back(std::make_unique<ReservedTcpPort>());
      endpoints[static_cast<size_t>(p)].port = reserved.back()->port();
    }
  }

  std::unique_ptr<MessageBus> bus[2];
  std::shared_ptr<SocketTransport> transport[2];
  ScopeExit teardown([&] {
    for (int p = 0; p < 2; ++p) {
      if (bus[p] != nullptr) {
        bus[p]->CloseAll();
      }
      if (transport[p] != nullptr) {
        transport[p]->Stop();
      }
    }
    if (!dir.empty()) {
      for (const SocketEndpoint& e : endpoints) {
        std::remove(e.unix_path.c_str());
      }
      rmdir(dir.c_str());
    }
  });

  for (int p = 0; p < 2; ++p) {
    SocketTransportOptions topts;
    topts.self = p;
    topts.processes = endpoints;
    topts.node_owner = {0, 1};
    bus[p] = std::make_unique<MessageBus>(2);
    transport[p] = std::make_shared<SocketTransport>(topts);
    bus[p]->AttachTransport(transport[p]);
    const Status started = transport[p]->Start(bus[p].get());
    if (!started.ok()) {
      return started;
    }
  }
  reserved.clear();
  for (int p = 0; p < 2; ++p) {
    const Status connected = transport[p]->ConnectAll();
    if (!connected.ok()) {
      return connected;
    }
  }

  auto sink = bus[1]->Register(Address{1, kServerPort});
  // One shared slab: the send path is zero-copy, so the probe measures the
  // socket, not an allocator.
  Payload slab = Payload::Allocate(options.payload_floats);

  auto send_frame = [&](int64_t iter) -> Status {
    Message m;
    m.type = MessageType::kGradPush;
    m.from = Address{0, kSyncerPortBase};
    m.to = Address{1, kServerPort};
    m.layer = 0;
    m.worker = 0;
    m.iter = iter;
    m.codec = WireCodec::kRawFloat;
    m.chunks.push_back({0, slab.View()});
    return bus[0]->Send(std::move(m));
  };

  for (int i = 0; i < options.warmup_frames; ++i) {
    const Status sent = send_frame(i);
    if (!sent.ok()) {
      return sent;
    }
  }
  for (int i = 0; i < options.warmup_frames; ++i) {
    if (!sink->Pop().has_value()) {
      return InternalError("socket bench warmup frame lost");
    }
  }

  const int64_t wire_before = transport[0]->bytes_sent();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < options.frames; ++i) {
    const Status sent = send_frame(options.warmup_frames + i);
    if (!sent.ok()) {
      return sent;
    }
  }
  for (int i = 0; i < options.frames; ++i) {
    if (!sink->Pop().has_value()) {
      return InternalError("socket bench timed frame lost");
    }
  }
  const auto end = std::chrono::steady_clock::now();

  SocketBandwidthResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.payload_bytes =
      static_cast<int64_t>(options.frames) * options.payload_floats * 4;
  // Every timed frame was popped, so every timed record was written; the
  // sender counter delta is the stream cost including headers.
  result.wire_bytes = transport[0]->bytes_sent() - wire_before;
  if (result.seconds > 0.0) {
    result.payload_gbps =
        static_cast<double>(result.payload_bytes) * 8.0 / result.seconds / 1e9;
    result.wire_gbps =
        static_cast<double>(result.wire_bytes) * 8.0 / result.seconds / 1e9;
  }
  return result;
}

double MeasureTransportForBench(const BenchArgs& args, BenchRecord* record) {
  if (!args.SocketTransportRequested()) {
    return 0.0;
  }
  SocketBandwidthOptions options;
  options.unix_sockets = args.UnixTransport();
  const StatusOr<SocketBandwidthResult> measured = MeasureSocketBandwidth(options);
  if (!measured.ok()) {
    std::fprintf(stderr, "socket bandwidth probe failed: %s\n",
                 measured.status().ToString().c_str());
    return 0.0;
  }
  std::printf(
      "Measured loopback %s transport: %.2f Gb/s payload, %.2f Gb/s on the "
      "stream (%lld bytes in %.3f s); sweeping it as an extra bandwidth.\n\n",
      args.transport.c_str(), measured->payload_gbps, measured->wire_gbps,
      static_cast<long long>(measured->wire_bytes), measured->seconds);
  if (record != nullptr) {
    record->SetMeta("transport", args.transport);
    record->Append("socket_payload_gbps", measured->payload_gbps);
    record->Append("socket_wire_gbps", measured->wire_gbps);
  }
  return measured->payload_gbps;
}

}  // namespace poseidon
