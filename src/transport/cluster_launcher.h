/// \file
/// Process plumbing for multi-process clusters: endpoint allocation, child
/// spawn/reap with timeouts, and the rendezvous/shutdown control protocol
/// that runs over SocketTransport control records.
///
/// The launcher model (tools/poseidon_launch.cc): process 0 is the
/// coordinator/controller; every other process hosts one or more bus nodes.
/// Lifecycle, all over control records on the ordinary data connections —
/// no second channel to keep consistent:
///
///   1. every process binds its listener, registers its mailboxes, dials
///      the full mesh, then sends kReady to process 0;
///   2. process 0 collects a kReady from every process (itself included)
///      and broadcasts kGo — only now may data flow, so no frame can ever
///      arrive before its destination mailbox exists;
///   3. each worker-hosting process sends kWorkerDone after its last
///      iteration (all replies received = its streams are quiescent);
///   4. process 0 collects kWorkerDone from every worker process and
///      broadcasts kShutdown; everyone tears down and exits 0.
///
/// Every wait has a deadline. A missed deadline (peer crashed, rendezvous
/// failed) returns DeadlineExceeded; the process exits nonzero, the launcher
/// notices the dead child, kills the rest of the cluster and propagates the
/// failure — CI sees a red job, never a hang (see docs/TRANSPORT.md).
#ifndef POSEIDON_SRC_TRANSPORT_CLUSTER_LAUNCHER_H_
#define POSEIDON_SRC_TRANSPORT_CLUSTER_LAUNCHER_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/transport/socket_transport.h"

namespace poseidon {

// ---------------------------------------------------------------- processes

/// A loopback TCP port held until the listener that will serve it binds.
/// The holder socket is bound to 127.0.0.1 with SO_REUSEADDR and never
/// listens, so a SocketTransport (which also binds with SO_REUSEADDR) can
/// take the port — in this process or in a child — while every other bind
/// and connect() autobind on the host stays off it. A port that was merely
/// picked and closed could be taken by any outgoing connection before its
/// owner bound it. Destroy once every listener is up (after rendezvous).
class ReservedTcpPort {
 public:
  ReservedTcpPort();  // CHECK-fails when no loopback port can be bound
  ~ReservedTcpPort();
  ReservedTcpPort(const ReservedTcpPort&) = delete;
  ReservedTcpPort& operator=(const ReservedTcpPort&) = delete;

  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// A collision-resistant AF_UNIX socket path under `dir` (pid + tag + index
/// based). The path is unlinked if it already exists.
std::string MakeUnixSocketPath(const std::string& dir, const std::string& tag,
                               int index);

/// One spawned cluster member.
struct ChildProcess {
  pid_t pid = -1;
  /// The child's stderr is redirected here (append) so a failing cluster can
  /// dump every member's log.
  std::string stderr_path;
};

/// fork + execv of `binary` with `args` (argv[0] is set to `binary`),
/// stderr redirected to `stderr_path`. Returns immediately with the pid.
StatusOr<ChildProcess> SpawnChild(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  const std::string& stderr_path);

/// Waits for `child` up to `timeout_ms`. Returns the exit code (128 + signal
/// for a signalled child); DeadlineExceeded if it is still running — the
/// caller decides whether to kill.
StatusOr<int> WaitChild(const ChildProcess& child, int timeout_ms);

/// SIGKILL + reap, for tearing down a cluster after one member failed.
void KillChild(const ChildProcess& child);

/// Last `max_bytes` of a file (stderr capture on failure); empty string when
/// unreadable.
std::string ReadFileTail(const std::string& path, int64_t max_bytes = 8192);

// ------------------------------------------------------------- rendezvous --

/// Control opcodes (SocketTransport kControl records).
enum ClusterOpcode : uint16_t {
  kOpReady = 1,       ///< member -> 0: mailboxes registered, mesh dialed
  kOpGo = 2,          ///< 0 -> all: every member ready; data may flow
  kOpWorkerDone = 3,  ///< worker process -> 0: last iteration complete
  kOpShutdown = 4,    ///< 0 -> all: tear down and exit
};

/// The rendezvous/shutdown state machine over one SocketTransport. Construct
/// BEFORE transport.Start() (it installs the control handler); then drive
/// the phases from the owning process's main thread. Thread-safe.
class ClusterControl {
 public:
  /// Installs this controller as `transport`'s control handler.
  ClusterControl(SocketTransport* transport, int num_processes);

  /// Phase 1+2. Members send kReady to process 0 and block for kGo;
  /// process 0 blocks for every kReady (its own included) and broadcasts
  /// kGo. Returns DeadlineExceeded if the cluster fails to assemble.
  Status Rendezvous(int timeout_ms);

  /// Phase 3, worker-hosting processes: announce completion to process 0.
  Status SignalWorkersDone();

  /// Phase 4, process 0: block until every process in `worker_processes`
  /// sent kWorkerDone, then broadcast kShutdown.
  Status AwaitWorkersAndBroadcastShutdown(const std::set<int>& worker_processes,
                                          int timeout_ms);

  /// Phase 4, members: block for kShutdown.
  Status AwaitShutdown(int timeout_ms);

 private:
  void OnControl(int src_process, uint16_t opcode);

  SocketTransport* const transport_;
  const int num_processes_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<int> ready_;
  std::set<int> done_;
  bool go_ = false;
  bool shutdown_ = false;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_CLUSTER_LAUNCHER_H_
