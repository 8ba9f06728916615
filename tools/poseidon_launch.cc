// poseidon_launch: spawn a real multi-process Poseidon cluster on one
// machine and train the canonical TinyMlp workload over sockets.
//
// Launcher mode (the default) forks N-1 children of this same binary in
// --role=node mode and itself acts as process 0 (the coordinator/controller,
// hosting no bus nodes). Each remaining process hosts one bus node — one
// worker replica, one KV server, or (with --colocate) both. Rendezvous,
// go-signal and shutdown run as control records on the data connections
// (src/transport/cluster_launcher.h); any child crash or missed deadline
// kills the whole cluster and exits nonzero, so a wedged run can never hang
// CI.
//
//   poseidon_launch --workers=2 --servers=2 --shards=2 --iters=6 --out=DIR
//
// Worker results land in --out: worker_<w>_losses.txt (hexfloat, bitwise
// comparable) and worker_<w>.ckpt (final replica parameters). The
// multi-process trajectory test diffs them against the in-process oracle.
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/poseidon/cluster_node.h"
#include "src/poseidon/workloads.h"
#include "src/transport/cluster_launcher.h"

namespace poseidon {
namespace {

struct LaunchArgs {
  int workers = 2;
  int servers = 2;
  int shards = 2;
  int staleness = 0;
  int iters = 6;
  int hidden_layers = 2;
  std::string policy = "dense";
  std::string transport = "tcp";  // tcp | unix
  bool colocate = false;
  bool batch_egress = false;
  std::string out;
  int timeout_s = 180;

  // Socket weather for the bus's fault fabric (TrainerOptions::fault_plan):
  // seeded drop/duplicate/delay dice rolled per egress frame on every
  // process.
  FaultPlan weather;

  // --role=node internals (set by the launcher, not by humans).
  bool node_role = false;
  int process = -1;
  std::vector<std::string> endpoints;
  std::vector<int> node_owner;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workers=N] [--servers=N] [--shards=N] [--staleness=N]\n"
      "          [--iters=N] [--hidden-layers=N] [--policy=dense|sfb|hybrid|onebit]\n"
      "          [--transport=tcp|unix] [--colocate] [--batch-egress]\n"
      "          [--shim-seed=N] [--shim-drop=P] [--shim-dup=P] [--shim-delay=P]\n"
      "          [--timeout-s=N] --out=DIR\n",
      argv0);
  std::exit(2);
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t at = 0;
  while (at <= s.size()) {
    const size_t comma = s.find(',', at);
    if (comma == std::string::npos) {
      out.push_back(s.substr(at));
      break;
    }
    out.push_back(s.substr(at, comma - at));
    at = comma + 1;
  }
  return out;
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

LaunchArgs Parse(int argc, char** argv) {
  LaunchArgs args;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (FlagValue(a, "--workers", &v)) {
      args.workers = std::atoi(v.c_str());
    } else if (FlagValue(a, "--servers", &v)) {
      args.servers = std::atoi(v.c_str());
    } else if (FlagValue(a, "--shards", &v)) {
      args.shards = std::atoi(v.c_str());
    } else if (FlagValue(a, "--staleness", &v)) {
      args.staleness = std::atoi(v.c_str());
    } else if (FlagValue(a, "--iters", &v)) {
      args.iters = std::atoi(v.c_str());
    } else if (FlagValue(a, "--hidden-layers", &v)) {
      args.hidden_layers = std::atoi(v.c_str());
    } else if (FlagValue(a, "--policy", &v)) {
      args.policy = v;
    } else if (FlagValue(a, "--transport", &v)) {
      args.transport = v;
    } else if (std::strcmp(a, "--colocate") == 0) {
      args.colocate = true;
    } else if (std::strcmp(a, "--batch-egress") == 0) {
      args.batch_egress = true;
    } else if (FlagValue(a, "--out", &v)) {
      args.out = v;
    } else if (FlagValue(a, "--timeout-s", &v)) {
      args.timeout_s = std::atoi(v.c_str());
    } else if (FlagValue(a, "--shim-seed", &v)) {
      args.weather.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(a, "--shim-drop", &v)) {
      args.weather.drop_prob = std::atof(v.c_str());
    } else if (FlagValue(a, "--shim-dup", &v)) {
      args.weather.duplicate_prob = std::atof(v.c_str());
    } else if (FlagValue(a, "--shim-delay", &v)) {
      args.weather.delay_prob = std::atof(v.c_str());
    } else if (FlagValue(a, "--role", &v)) {
      if (v != "node") Usage(argv[0]);
      args.node_role = true;
    } else if (FlagValue(a, "--process", &v)) {
      args.process = std::atoi(v.c_str());
    } else if (FlagValue(a, "--endpoints", &v)) {
      args.endpoints = SplitCsv(v);
    } else if (FlagValue(a, "--node-owner", &v)) {
      for (const std::string& n : SplitCsv(v)) {
        args.node_owner.push_back(std::atoi(n.c_str()));
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      Usage(argv[0]);
    }
  }
  if (args.workers < 1 || args.servers < 1 || args.shards < 1 ||
      args.iters < 1 || args.out.empty()) {
    Usage(argv[0]);
  }
  if (args.transport != "tcp" && args.transport != "unix") Usage(argv[0]);
  return args;
}

PlanPolicy ParsePolicy(const std::string& name) {
  if (name == "dense") return PlanPolicy::kDense;
  if (name == "sfb") return PlanPolicy::kSfb;
  if (name == "hybrid") return PlanPolicy::kHybrid;
  if (name == "onebit") return PlanPolicy::kOneBit;
  std::fprintf(stderr, "unknown --policy=%s\n", name.c_str());
  std::exit(2);
}

SocketEndpoint ParseEndpoint(const std::string& spec) {
  SocketEndpoint ep;
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    ep.unix_path = spec;
  } else {
    ep.host = spec.substr(0, colon);
    ep.port = std::atoi(spec.c_str() + colon + 1);
  }
  return ep;
}

ClusterNodeConfig MakeNodeConfig(const LaunchArgs& args) {
  ClusterNodeConfig config;
  config.trainer = workloads::SmallTrainerOptions(
      args.workers, args.servers, args.shards, args.staleness,
      ParsePolicy(args.policy));
  config.trainer.server_node_base = args.colocate ? 0 : args.workers;
  config.trainer.batch_egress = args.batch_egress;
  config.hidden_layers = args.hidden_layers;
  config.iterations = args.iters;
  config.process = args.process;
  config.out_dir = args.out;
  config.rendezvous_timeout_ms = args.timeout_s * 1000;
  config.shutdown_timeout_ms = args.timeout_s * 1000;
  config.transport.self = args.process;
  for (const std::string& spec : args.endpoints) {
    config.transport.processes.push_back(ParseEndpoint(spec));
  }
  config.transport.node_owner = args.node_owner;
  config.trainer.fault_plan = args.weather;
  return config;
}

int RunNode(const LaunchArgs& args) {
  ClusterNode node(MakeNodeConfig(args));
  const Status status = node.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "process %d failed: %s\n", args.process,
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

std::string SelfBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  CHECK_GT(n, 0) << "cannot resolve /proc/self/exe";
  buf[n] = '\0';
  return buf;
}

// mkdir -p for --out: the launcher owns the directory the whole cluster
// writes into (child stderr, worker results, unix socket paths).
bool MakeOutDir(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "mkdir %s: %s\n", partial.c_str(),
                   std::strerror(errno));
      return false;
    }
  }
  return true;
}

int RunLauncher(const LaunchArgs& args, int argc, char** argv) {
  if (!MakeOutDir(args.out)) return 1;
  const int base = args.colocate ? 0 : args.workers;
  const int num_nodes = std::max(args.workers, base + args.servers);
  const int num_processes = num_nodes + 1;  // + the coordinator, process 0

  // Endpoint table: process 0 first, then one endpoint per node process.
  // TCP ports stay reserved until process 0's run returns: its rendezvous
  // completes only once every member has bound its listener, so no
  // outgoing connection on the host can take a port before its owner.
  std::vector<std::string> endpoints;
  std::vector<std::unique_ptr<ReservedTcpPort>> reserved;
  for (int p = 0; p < num_processes; ++p) {
    if (args.transport == "unix") {
      endpoints.push_back(MakeUnixSocketPath(args.out, "poseidon", p));
    } else {
      reserved.push_back(std::make_unique<ReservedTcpPort>());
      endpoints.push_back("127.0.0.1:" + std::to_string(reserved.back()->port()));
    }
  }
  std::vector<int> node_owner;
  for (int n = 0; n < num_nodes; ++n) {
    node_owner.push_back(n + 1);
  }

  std::string endpoints_csv, owner_csv;
  for (int p = 0; p < num_processes; ++p) {
    if (p > 0) endpoints_csv += ",";
    endpoints_csv += endpoints[static_cast<size_t>(p)];
  }
  for (int n = 0; n < num_nodes; ++n) {
    if (n > 0) owner_csv += ",";
    owner_csv += std::to_string(node_owner[static_cast<size_t>(n)]);
  }

  // Children re-run this binary with the original shape flags plus the
  // node-role internals.
  const std::string binary = SelfBinary();
  std::vector<ChildProcess> children;
  for (int p = 1; p < num_processes; ++p) {
    std::vector<std::string> child_args;
    for (int i = 1; i < argc; ++i) {
      child_args.push_back(argv[i]);
    }
    child_args.push_back("--role=node");
    child_args.push_back("--process=" + std::to_string(p));
    child_args.push_back("--endpoints=" + endpoints_csv);
    child_args.push_back("--node-owner=" + owner_csv);
    const std::string log =
        args.out + "/process_" + std::to_string(p) + ".stderr";
    StatusOr<ChildProcess> child = SpawnChild(binary, child_args, log);
    if (!child.ok()) {
      std::fprintf(stderr, "spawn process %d: %s\n", p,
                   child.status().ToString().c_str());
      for (const ChildProcess& c : children) KillChild(c);
      return 1;
    }
    children.push_back(*child);
  }

  // Process 0 runs inline — its Run() drives rendezvous and shutdown. A
  // child that dies early breaks the control protocol, which surfaces here
  // as a deadline error; the stderr tails below then tell the real story.
  LaunchArgs self = args;
  self.node_role = true;
  self.process = 0;
  self.endpoints = SplitCsv(endpoints_csv);
  self.node_owner = node_owner;
  const int zero_rc = RunNode(self);
  reserved.clear();

  int rc = zero_rc;
  for (size_t i = 0; i < children.size(); ++i) {
    const int reap_ms = zero_rc == 0 ? args.timeout_s * 1000 : 2000;
    StatusOr<int> child_rc = WaitChild(children[i], reap_ms);
    if (!child_rc.ok()) {
      std::fprintf(stderr, "process %zu wedged (%s); killing\n", i + 1,
                   child_rc.status().ToString().c_str());
      KillChild(children[i]);
      rc = 1;
    } else if (*child_rc != 0) {
      std::fprintf(stderr, "process %zu exited %d\n", i + 1, *child_rc);
      rc = 1;
    }
  }
  if (rc != 0) {
    for (const ChildProcess& child : children) {
      const std::string tail = ReadFileTail(child.stderr_path);
      if (!tail.empty()) {
        std::fprintf(stderr, "---- %s ----\n%s\n", child.stderr_path.c_str(),
                     tail.c_str());
      }
    }
  } else {
    std::fprintf(stderr, "cluster of %d processes trained %d iterations\n",
                 num_processes, args.iters);
  }
  return rc;
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::LaunchArgs args = poseidon::Parse(argc, argv);
  if (args.node_role) {
    return poseidon::RunNode(args);
  }
  return poseidon::RunLauncher(args, argc, argv);
}
