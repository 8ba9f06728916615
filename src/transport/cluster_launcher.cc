#include "src/transport/cluster_launcher.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/common/logging.h"

namespace poseidon {

ReservedTcpPort::ReservedTcpPort() {
  // Close-on-exec: spawned cluster members must not inherit the holders.
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CHECK_GE(fd_, 0) << "socket: " << std::strerror(errno);
  int one = 1;
  CHECK_EQ(::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // kernel picks
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  CHECK_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "bind :0: " << std::strerror(errno);
  socklen_t len = sizeof(addr);
  CHECK_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port_ = ntohs(addr.sin_port);
}

ReservedTcpPort::~ReservedTcpPort() { ::close(fd_); }

std::string MakeUnixSocketPath(const std::string& dir, const std::string& tag,
                               int index) {
  std::string path = dir + "/" + tag + "." + std::to_string(::getpid()) + "." +
                     std::to_string(index) + ".sock";
  ::unlink(path.c_str());
  return path;
}

StatusOr<ChildProcess> SpawnChild(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  const std::string& stderr_path) {
  // Build argv before forking; only async-signal-safe calls after fork().
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return InternalError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int fd = ::open(stderr_path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDERR_FILENO);
      if (fd != STDERR_FILENO) ::close(fd);
    }
    ::execv(binary.c_str(), argv.data());
    // Only reached when execv itself failed.
    ::dprintf(STDERR_FILENO, "execv %s: %s\n", binary.c_str(),
              std::strerror(errno));
    ::_exit(127);
  }
  ChildProcess child;
  child.pid = pid;
  child.stderr_path = stderr_path;
  return child;
}

StatusOr<int> WaitChild(const ChildProcess& child, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(child.pid, &status, WNOHANG);
    if (got < 0) {
      return InternalError(std::string("waitpid: ") + std::strerror(errno));
    }
    if (got == child.pid) {
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return InternalError("waitpid: child neither exited nor signalled");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return DeadlineExceededError("child " + std::to_string(child.pid) +
                                   " still running after " +
                                   std::to_string(timeout_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void KillChild(const ChildProcess& child) {
  if (child.pid <= 0) return;
  ::kill(child.pid, SIGKILL);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
}

std::string ReadFileTail(const std::string& path, int64_t max_bytes) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long start = size > max_bytes ? size - max_bytes : 0;
  std::fseek(f, start, SEEK_SET);
  std::string out(static_cast<size_t>(size - start), '\0');
  const size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fclose(f);
  return out;
}

// -------------------------------------------------------------- rendezvous

ClusterControl::ClusterControl(SocketTransport* transport, int num_processes)
    : transport_(transport), num_processes_(num_processes) {
  CHECK(transport_ != nullptr);
  CHECK_GE(num_processes_, 1);
  transport_->SetControlHandler(
      [this](int src, uint16_t opcode, const std::vector<uint8_t>& body) {
        (void)body;
        OnControl(src, opcode);
      });
}

void ClusterControl::OnControl(int src_process, uint16_t opcode) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (opcode) {
    case kOpReady:
      ready_.insert(src_process);
      break;
    case kOpGo:
      go_ = true;
      break;
    case kOpWorkerDone:
      done_.insert(src_process);
      break;
    case kOpShutdown:
      shutdown_ = true;
      break;
    default:
      LOG(Warning) << "cluster control: unknown opcode " << opcode
                   << " from process " << src_process;
      break;
  }
  cv_.notify_all();
}

Status ClusterControl::Rendezvous(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const Status sent = transport_->SendControl(0, kOpReady, {});
  if (!sent.ok()) return sent;
  if (transport_->self() == 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_until(lock, deadline, [this] {
          return static_cast<int>(ready_.size()) == num_processes_;
        })) {
      return DeadlineExceededError(
          "rendezvous: " + std::to_string(ready_.size()) + "/" +
          std::to_string(num_processes_) + " processes ready");
    }
    lock.unlock();
    for (int p = 0; p < num_processes_; ++p) {
      const Status go = transport_->SendControl(p, kOpGo, {});
      if (!go.ok()) return go;
    }
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!cv_.wait_until(lock, deadline, [this] { return go_; })) {
    return DeadlineExceededError("rendezvous: no GO from process 0");
  }
  return Status::Ok();
}

Status ClusterControl::SignalWorkersDone() {
  return transport_->SendControl(0, kOpWorkerDone, {});
}

Status ClusterControl::AwaitWorkersAndBroadcastShutdown(
    const std::set<int>& worker_processes, int timeout_ms) {
  CHECK_EQ(transport_->self(), 0);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_until(lock, deadline, [this, &worker_processes] {
          for (int p : worker_processes) {
            if (done_.count(p) == 0) return false;
          }
          return true;
        })) {
      return DeadlineExceededError(
          "shutdown: " + std::to_string(done_.size()) + "/" +
          std::to_string(worker_processes.size()) + " worker processes done");
    }
  }
  for (int p = 0; p < num_processes_; ++p) {
    const Status down = transport_->SendControl(p, kOpShutdown, {});
    if (!down.ok()) return down;
  }
  return Status::Ok();
}

Status ClusterControl::AwaitShutdown(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!cv_.wait_until(lock,
                      std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms),
                      [this] { return shutdown_; })) {
    return DeadlineExceededError("no SHUTDOWN from process 0");
  }
  return Status::Ok();
}

}  // namespace poseidon
