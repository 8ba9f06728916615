#include "src/transport/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/transport/bus.h"

namespace poseidon {
namespace {

Status ErrnoStatus(const std::string& what) {
  return UnavailableError(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  CHECK_GE(flags, 0) << "fcntl(F_GETFL) failed";
  CHECK_GE(fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0) << "fcntl(F_SETFL) failed";
}

void SetNoDelay(int fd) {
  // Latency over Nagle: a carrier already coalesces the frames it admits
  // together into one write, so there is nothing left for the kernel to
  // batch.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Builds the sockaddr for an endpoint; returns the family used.
int FillSockaddr(const SocketEndpoint& ep, sockaddr_storage* storage,
                 socklen_t* len) {
  std::memset(storage, 0, sizeof(*storage));
  if (ep.is_unix()) {
    auto* sun = reinterpret_cast<sockaddr_un*>(storage);
    sun->sun_family = AF_UNIX;
    CHECK_LT(ep.unix_path.size(), sizeof(sun->sun_path))
        << "unix socket path too long: " << ep.unix_path;
    std::strncpy(sun->sun_path, ep.unix_path.c_str(), sizeof(sun->sun_path) - 1);
    *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  ep.unix_path.size() + 1);
    return AF_UNIX;
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(static_cast<uint16_t>(ep.port));
  CHECK_EQ(inet_pton(AF_INET, ep.host.c_str(), &sin->sin_addr), 1)
      << "bad host address: " << ep.host;
  *len = sizeof(sockaddr_in);
  return AF_INET;
}

// Blocking write of the full iovec array, as one gathered sendmsg per
// IOV_MAX pieces (writev with MSG_NOSIGNAL: a dead or shut-down connection
// reports EPIPE instead of raising SIGPIPE). Returns false on a connection
// error.
bool WriteAll(int fd, std::vector<iovec> iov) {
  size_t at = 0;
  while (at < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + at;
    msg.msg_iovlen = std::min<size_t>(iov.size() - at, IOV_MAX);
    const ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    size_t remaining = static_cast<size_t>(n);
    while (at < iov.size() && remaining >= iov[at].iov_len) {
      remaining -= iov[at].iov_len;
      ++at;
    }
    if (at < iov.size() && remaining > 0) {
      iov[at].iov_base = static_cast<uint8_t*>(iov[at].iov_base) + remaining;
      iov[at].iov_len -= remaining;
    }
  }
  return true;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)) {
  CHECK_GE(options_.self, 0);
  CHECK_LT(options_.self, static_cast<int>(options_.processes.size()));
  for (const int owner : options_.node_owner) {
    CHECK_GE(owner, 0);
    CHECK_LT(owner, static_cast<int>(options_.processes.size()));
  }
  peers_.resize(options_.processes.size());
  for (size_t p = 0; p < peers_.size(); ++p) {
    peers_[p] = std::make_unique<Peer>();
  }
}

SocketTransport::~SocketTransport() { Stop(); }

void SocketTransport::SetControlHandler(SocketControlHandler handler) {
  CHECK(!started_.load()) << "control handler must be set before Start";
  control_handler_ = std::move(handler);
}

const char* SocketTransport::name() const {
  return options_.processes[static_cast<size_t>(options_.self)].is_unix()
             ? "unix"
             : "tcp";
}

bool SocketTransport::IsLocal(int node) const {
  CHECK_GE(node, 0);
  CHECK_LT(node, static_cast<int>(options_.node_owner.size()));
  return options_.node_owner[static_cast<size_t>(node)] == options_.self;
}

Status SocketTransport::Start(MessageBus* bus) {
  CHECK(!started_.load()) << "Start called twice";
  bus_ = bus;
  const SocketEndpoint& self_ep =
      options_.processes[static_cast<size_t>(options_.self)];
  if (self_ep.is_unix()) {
    unlink(self_ep.unix_path.c_str());  // stale path from a crashed run
  }
  sockaddr_storage addr;
  socklen_t addr_len = 0;
  const int family = FillSockaddr(self_ep, &addr, &addr_len);
  listen_fd_ = socket(family, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return ErrnoStatus("socket(listen)");
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), addr_len) < 0) {
    return ErrnoStatus("bind " + (self_ep.is_unix() ? self_ep.unix_path
                                                    : self_ep.host + ":" +
                                                          std::to_string(self_ep.port)));
  }
  if (listen(listen_fd_, SOMAXCONN) < 0) {
    return ErrnoStatus("listen");
  }
  if (family == AF_INET) {
    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    CHECK_EQ(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                         &bound_len), 0);
    listen_port_ = ntohs(bound.sin_port);
  }
  SetNonBlocking(listen_fd_);
  CHECK_EQ(pipe(wake_pipe_), 0) << "pipe failed";
  SetNonBlocking(wake_pipe_[0]);
  started_.store(true);
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

Status SocketTransport::DialPeer(int peer_index) {
  const SocketEndpoint& ep = options_.processes[static_cast<size_t>(peer_index)];
  sockaddr_storage addr;
  socklen_t addr_len = 0;
  const int family = FillSockaddr(ep, &addr, &addr_len);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.connect_timeout_ms);
  // A peer that has not bound yet is usually building its runtime, which
  // takes well under a millisecond: start the retry at 50 us and back off
  // to 20 ms.
  std::chrono::microseconds backoff(50);
  while (true) {
    const int fd = socket(family, SOCK_STREAM, 0);
    if (fd < 0) {
      return ErrnoStatus("socket(connect)");
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) == 0) {
      if (family == AF_INET) {
        SetNoDelay(fd);
      }
      Peer& peer = *peers_[static_cast<size_t>(peer_index)];
      std::lock_guard<std::mutex> lock(peer.mutex);
      peer.fd = fd;
      return Status::Ok();
    }
    const int err = errno;
    close(fd);
    // Peers bind in arbitrary order: refusal / missing unix path just means
    // "not up yet" until the deadline says otherwise.
    const bool retryable = err == ECONNREFUSED || err == ENOENT ||
                           err == ECONNRESET || err == EAGAIN;
    if (!retryable || std::chrono::steady_clock::now() >= deadline) {
      errno = err;
      return ErrnoStatus("connect to process " + std::to_string(peer_index));
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min<std::chrono::microseconds>(2 * backoff, std::chrono::milliseconds(20));
  }
}

Status SocketTransport::ConnectAll() {
  CHECK(started_.load()) << "ConnectAll requires Start";
  for (int p = 0; p < num_processes(); ++p) {
    if (p == options_.self) {
      continue;
    }
    Status status = DialPeer(p);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

std::array<uint8_t, kSocketRecordHeaderBytes> SocketTransport::RecordHeader(
    SocketRecordKind kind, size_t body_bytes) const {
  std::array<uint8_t, kSocketRecordHeaderBytes> header;
  const uint32_t len = static_cast<uint32_t>(body_bytes);
  for (int i = 0; i < 4; ++i) {
    header[static_cast<size_t>(i)] = static_cast<uint8_t>((len >> (8 * i)) & 0xFF);
  }
  header[4] = kSocketRecordVersion;
  header[5] = static_cast<uint8_t>(kind);
  header[6] = static_cast<uint8_t>(options_.self & 0xFF);
  header[7] = static_cast<uint8_t>((options_.self >> 8) & 0xFF);
  return header;
}

Status SocketTransport::SendFrames(int src_node, int dst_node,
                                   std::vector<std::vector<uint8_t>> frames) {
  CHECK(IsLocal(src_node)) << "frame source node " << src_node
                           << " is not hosted by process " << options_.self;
  const int dst_process = options_.node_owner[static_cast<size_t>(dst_node)];
  CHECK_NE(dst_process, options_.self)
      << "SendFrames for a local destination node " << dst_node;
  // Headers in one array (stable addresses for the iovecs); each frame body
  // is written from where the carrier encoded it, with no copy.
  std::vector<std::array<uint8_t, kSocketRecordHeaderBytes>> headers;
  headers.reserve(frames.size());
  std::vector<iovec> iov;
  iov.reserve(2 * frames.size());
  for (std::vector<uint8_t>& frame : frames) {
    headers.push_back(RecordHeader(SocketRecordKind::kData, frame.size()));
    iov.push_back({headers.back().data(), headers.back().size()});
    iov.push_back({frame.data(), frame.size()});
  }
  return Write(dst_process, std::move(iov), static_cast<int64_t>(frames.size()));
}

Status SocketTransport::SendControl(int dst_process, uint16_t opcode,
                                    std::vector<uint8_t> body) {
  if (dst_process == options_.self) {
    // Self-delivery stays in process (the launcher's proc-0 controller
    // counts itself in barriers).
    if (control_handler_) {
      control_handler_(options_.self, opcode, body);
    }
    return Status::Ok();
  }
  uint8_t op[2] = {static_cast<uint8_t>(opcode & 0xFF),
                   static_cast<uint8_t>((opcode >> 8) & 0xFF)};
  std::array<uint8_t, kSocketRecordHeaderBytes> header =
      RecordHeader(SocketRecordKind::kControl, sizeof(op) + body.size());
  std::vector<iovec> iov = {{header.data(), header.size()}, {op, sizeof(op)}};
  if (!body.empty()) {
    iov.push_back({body.data(), body.size()});
  }
  return Write(dst_process, std::move(iov), /*records=*/1);
}

Status SocketTransport::Write(int dst_process, std::vector<iovec> iov, int64_t records) {
  Peer& peer = *peers_[static_cast<size_t>(dst_process)];
  int64_t bytes = 0;
  for (const iovec& piece : iov) {
    bytes += static_cast<int64_t>(piece.iov_len);
  }
  std::lock_guard<std::mutex> lock(peer.mutex);
  if (stopped_.load(std::memory_order_acquire) || peer.dead || peer.fd < 0) {
    return UnavailableError("connection to process " + std::to_string(dst_process) +
                            " is down");
  }
  // Count before writing: the receiver may deliver a record (and its reader
  // look at these counters) before WriteAll returns.
  records_sent_.fetch_add(records, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  if (!WriteAll(peer.fd, std::move(iov))) {
    records_sent_.fetch_sub(records, std::memory_order_relaxed);
    bytes_sent_.fetch_sub(bytes, std::memory_order_relaxed);
    if (!stopped_.load(std::memory_order_acquire)) {
      LOG(Warning) << "transport: write to process " << dst_process << " failed ("
                   << std::strerror(errno) << "); egress to it is dead";
    }
    peer.dead = true;
    return UnavailableError("write to process " + std::to_string(dst_process) +
                            " failed");
  }
  return Status::Ok();
}

void SocketTransport::PollLoop() {
  std::vector<Ingress> conns;
  while (!stopped_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const Ingress& in : conns) {
      fds.push_back({in.fd, POLLIN, 0});
    }
    const int ready = poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      LOG(Warning) << "transport: poll failed: " << std::strerror(errno);
      break;
    }
    if (stopped_.load(std::memory_order_acquire)) {
      break;
    }
    // Only the first `polled` connections have a pollfd slot this round;
    // ones accepted below wait for the next poll.
    const size_t polled = conns.size();
    if (fds[0].revents & POLLIN) {
      while (true) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          break;  // EAGAIN: accepted everything pending
        }
        SetNonBlocking(fd);
        Ingress in;
        in.fd = fd;
        conns.push_back(std::move(in));
      }
    }
    if (fds[1].revents & POLLIN) {
      uint8_t sink[64];
      while (read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }
    // `slot` walks the polled fd list, `i` the live conns vector; they drift
    // apart exactly when a connection is erased.
    size_t i = 0;
    for (size_t slot = 0; slot < polled; ++slot) {
      const short revents = fds[2 + slot].revents;
      bool drop = false;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        while (true) {
          uint8_t chunk[65536];
          const ssize_t n = recv(conns[i].fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            bytes_received_.fetch_add(n, std::memory_order_relaxed);
            conns[i].buffer.insert(conns[i].buffer.end(), chunk, chunk + n);
            continue;
          }
          if (n == 0) {
            drop = true;  // orderly peer close
          } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            drop = true;
          }
          break;
        }
        if (!DrainIngress(conns[i])) {
          drop = true;
        }
      }
      if (drop) {
        close(conns[i].fd);
        conns.erase(conns.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }
  for (Ingress& in : conns) {
    close(in.fd);
  }
}

bool SocketTransport::DrainIngress(Ingress& in) {
  size_t at = 0;
  while (in.buffer.size() - at >= kSocketRecordHeaderBytes) {
    const uint8_t* h = in.buffer.data() + at;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(h[i]) << (8 * i);
    }
    if (h[4] != kSocketRecordVersion) {
      LOG(Warning) << "transport: record with unknown version "
                   << static_cast<int>(h[4]) << "; dropping connection";
      return false;
    }
    if (h[5] != static_cast<uint8_t>(SocketRecordKind::kData) &&
        h[5] != static_cast<uint8_t>(SocketRecordKind::kControl)) {
      LOG(Warning) << "transport: record with unknown kind "
                   << static_cast<int>(h[5]) << "; dropping connection";
      return false;
    }
    if (static_cast<int64_t>(len) > options_.max_record_bytes) {
      LOG(Warning) << "transport: oversized record (" << len
                   << " bytes); dropping connection";
      return false;
    }
    if (in.buffer.size() - at - kSocketRecordHeaderBytes < len) {
      break;  // incomplete: wait for more bytes
    }
    const uint16_t src = static_cast<uint16_t>(h[6] | (h[7] << 8));
    // Count before delivering: once HandleRecord hands the message to a
    // mailbox, its reader may already look at this counter.
    records_received_.fetch_add(1, std::memory_order_relaxed);
    HandleRecord(static_cast<SocketRecordKind>(h[5]), src, h + kSocketRecordHeaderBytes, len);
    at += kSocketRecordHeaderBytes + len;
  }
  if (at > 0) {
    in.buffer.erase(in.buffer.begin(), in.buffer.begin() + static_cast<long>(at));
  }
  return true;
}

void SocketTransport::HandleRecord(SocketRecordKind kind, uint16_t src_process,
                                   const uint8_t* body, int64_t size) {
  if (kind == SocketRecordKind::kData) {
    const Status status = bus_->DeliverWire(body, size);
    if (!status.ok()) {
      LOG(Warning) << "transport: bad data record from process "
                   << src_process << ": " << status.ToString();
    }
    return;
  }
  if (size < 2) {
    LOG(Warning) << "transport: truncated control record from process "
                 << src_process;
    return;
  }
  const uint16_t opcode = static_cast<uint16_t>(body[0] | (body[1] << 8));
  if (control_handler_) {
    control_handler_(static_cast<int>(src_process), opcode,
                     std::vector<uint8_t>(body + 2, body + size));
  }
}

void SocketTransport::Stop() {
  if (!started_.load() || stopped_.exchange(true)) {
    return;  // never started, or another caller already ran the teardown
  }
  // A writer blocked on a full socket holds its peer's mutex: shutting the
  // write side down first makes that write fail, so the lock below is
  // reachable and no fd is closed under a writer. Only ConnectAll, before,
  // and the close below ever set an fd.
  for (auto& peer_ptr : peers_) {
    if (peer_ptr->fd >= 0) {
      shutdown(peer_ptr->fd, SHUT_WR);
    }
  }
  for (auto& peer_ptr : peers_) {
    Peer& peer = *peer_ptr;
    std::lock_guard<std::mutex> lock(peer.mutex);
    if (peer.fd >= 0) {
      close(peer.fd);
      peer.fd = -1;
    }
  }
  WakeOnSelfPipe();
  if (poll_thread_.joinable()) {
    poll_thread_.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
  const SocketEndpoint& self_ep =
      options_.processes[static_cast<size_t>(options_.self)];
  if (self_ep.is_unix()) {
    unlink(self_ep.unix_path.c_str());
  }
}

void SocketTransport::WakeOnSelfPipe() {
  if (wake_pipe_[1] >= 0) {
    const uint8_t byte = 1;
    [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
  }
}

int64_t SocketTransport::records_sent() const {
  return records_sent_.load(std::memory_order_relaxed);
}
int64_t SocketTransport::records_received() const {
  return records_received_.load(std::memory_order_relaxed);
}
int64_t SocketTransport::bytes_sent() const {
  return bytes_sent_.load(std::memory_order_relaxed);
}
int64_t SocketTransport::bytes_received() const {
  return bytes_received_.load(std::memory_order_relaxed);
}

}  // namespace poseidon
