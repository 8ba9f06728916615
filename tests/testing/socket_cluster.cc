#include "tests/testing/socket_cluster.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/poseidon/workloads.h"
#include "src/transport/cluster_launcher.h"
#include "tests/testing/subprocess.h"

namespace poseidon {
namespace testing {
namespace {

void Accumulate(const FaultCountersSnapshot& add, FaultCountersSnapshot* into) {
  into->drops += add.drops;
  into->retransmits += add.retransmits;
  into->duplicates += add.duplicates;
  into->delays += add.delays;
  into->partition_holds += add.partition_holds;
  into->deduped += add.deduped;
  into->reordered += add.reordered;
  into->dropped_replies += add.dropped_replies;
  into->overflows += add.overflows;
}

}  // namespace

SocketClusterRun RunSocketCluster(const SocketClusterOptions& options) {
  const int base = options.colocate ? 0 : options.workers;
  const int num_nodes = std::max(options.workers, base + options.servers);
  const int num_processes = num_nodes + 1;  // + the controller, process 0
  const std::string dir = MakeTempDir("socket_cluster");

  std::vector<SocketEndpoint> endpoints;
  // Held until every member has run: the members bind inside Run.
  std::vector<std::unique_ptr<ReservedTcpPort>> reserved;
  for (int p = 0; p < num_processes; ++p) {
    SocketEndpoint ep;
    if (options.unix_sockets) {
      ep.unix_path = MakeUnixSocketPath(dir, "member", p);
    } else {
      reserved.push_back(std::make_unique<ReservedTcpPort>());
      ep.port = reserved.back()->port();
    }
    endpoints.push_back(ep);
  }
  std::vector<int> node_owner;
  for (int n = 0; n < num_nodes; ++n) {
    node_owner.push_back(n + 1);
  }

  std::vector<std::unique_ptr<ClusterNode>> members;
  for (int p = 0; p < num_processes; ++p) {
    ClusterNodeConfig config;
    config.trainer = workloads::SmallTrainerOptions(
        options.workers, options.servers, options.shards, options.staleness,
        options.policy);
    config.trainer.server_node_base = base;
    config.trainer.batch_egress = options.batch_egress;
    config.hidden_layers = options.hidden_layers;
    config.iterations = options.iterations;
    config.process = p;
    config.out_dir = dir;
    config.transport.self = p;
    config.transport.processes = endpoints;
    config.transport.node_owner = node_owner;
    config.trainer.fault_plan = options.shim;
    members.push_back(std::make_unique<ClusterNode>(std::move(config)));
  }

  std::vector<Status> results(members.size());
  std::vector<std::thread> threads;
  for (size_t p = 0; p < members.size(); ++p) {
    threads.emplace_back([&, p] { results[p] = members[p]->Run(); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Report every failed member: one member's early failure surfaces at the
  // controller only as a rendezvous timeout.
  std::string failures;
  for (size_t p = 0; p < results.size(); ++p) {
    if (!results[p].ok()) {
      failures += " [member " + std::to_string(p) + ": " + results[p].ToString() + "]";
    }
  }
  CHECK(failures.empty()) << "cluster failed:" << failures;

  SocketClusterRun run;
  run.trajectory.mean_losses =
      MeanLossesFromRun(dir, options.workers, options.iterations);
  run.trajectory.final_params =
      FinalParamsFromRun(dir, /*worker=*/0, options.hidden_layers);
  for (const auto& member : members) {
    const PoseidonTrainer& trainer = member->trainer();
    Accumulate(trainer.bus().FaultCounts(), &run.shim);
    for (int s = 0; s < options.servers; ++s) {
      if (trainer.hosts(trainer.coordinator().cluster().ServerNode(s))) {
        run.pushes_processed += trainer.server(s).pushes_processed();
        run.applies += trainer.server(s).applies();
        run.rejected_pushes += trainer.server(s).rejected_pushes();
      }
    }
    for (const int64_t messages : trainer.bus().TxMessages()) {
      run.tx_messages += messages;
    }
  }
  return run;
}

}  // namespace testing
}  // namespace poseidon
