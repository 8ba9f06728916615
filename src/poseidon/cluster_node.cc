#include "src/poseidon/cluster_node.h"

#include <cstdio>
#include <thread>

#include "src/common/logging.h"
#include "src/poseidon/checkpoint.h"
#include "src/poseidon/workloads.h"

namespace poseidon {

ClusterNode::ClusterNode(ClusterNodeConfig config) : config_(std::move(config)) {
  const TrainerOptions& t = config_.trainer;
  CHECK_GT(t.num_workers, 0);
  CHECK_GT(t.num_servers, 0);
  CHECK_GE(t.shards_per_server, 1)
      << "multi-process clusters need an explicit shard count";
  CHECK_GE(t.server_node_base, 0);
  CHECK(!t.crash.active() && !t.failure_detection.enabled)
      << "crash/recovery plans are in-process-trainer features";
  CHECK(t.plan_mode == TrainerPlanMode::kPaper)
      << "multi-process clusters run the paper-mode plan";
  CHECK(t.ps_compression == PlanCodecPolicy::kNone)
      << "compressed pushes cannot cross processes: the wire format rejects "
         "the int8/top-k push and fp16 reply codec ids";
  CHECK_GT(config_.iterations, 0);
  CHECK_EQ(config_.process, config_.transport.self);
}

ClusterNode::~ClusterNode() = default;

Status ClusterNode::Run() {
  const TrainerOptions& t = config_.trainer;
  // Every process resolves the same plan and builds the same coordinator
  // from it; replicas and the server master copies come from one
  // deterministic factory.
  init_net_ = workloads::TinyMlpFactory(config_.hidden_layers)();
  plan_ = ResolveTrainerPlan(t, *init_net_);
  coordinator_ = std::make_unique<Coordinator>(*init_net_, ClusterInfoFor(t, *plan_));
  const ClusterInfo& cluster = coordinator_->cluster();
  if (static_cast<int>(config_.transport.node_owner.size()) != cluster.NumNodes()) {
    return InvalidArgumentError("node_owner must map all " +
                                std::to_string(cluster.NumNodes()) + " bus nodes");
  }

  bus_ = MakeTrainerBus(t, *plan_, cluster.NumNodes());
  transport_ = std::make_shared<SocketTransport>(config_.transport);
  // Handler installation must precede Start(): control records may arrive
  // the moment the listener is up.
  control_ = std::make_unique<ClusterControl>(
      transport_.get(), static_cast<int>(config_.transport.processes.size()));
  bus_->AttachTransport(transport_);
  Status status = transport_->Start(bus_.get());
  if (status.ok()) {
    // This process's slice of the node space. Every local mailbox is
    // registered before Train announces readiness: no data frame flows until
    // every process passed the rendezvous barrier, so no frame can beat its
    // destination mailbox.
    for (int s = 0; s < t.num_servers; ++s) {
      if (transport_->IsLocal(cluster.ServerNode(s))) {
        servers_.push_back(std::make_unique<KvServer>(
            s, /*first_iter=*/0, *coordinator_, *plan_, *init_net_, bus_.get(), t.sgd));
      }
    }
    for (int w = 0; w < t.num_workers; ++w) {
      if (transport_->IsLocal(w)) {
        local_workers_.push_back(w);
        worker_nets_.push_back(workloads::TinyMlpFactory(config_.hidden_layers)());
        clients_.push_back(std::make_unique<ClientLibrary>(
            w, *coordinator_, *plan_, worker_nets_.back().get(), bus_.get(), t.sgd,
            t.syncer_threads));
      }
    }
    for (auto& server : servers_) {
      server->Start();
    }
    status = Train();
  }

  // The one teardown, whatever Train returned: stop the local shards, close
  // the mailboxes, stop I/O.
  for (auto& server : servers_) {
    server->Stop();
  }
  bus_->CloseAll();
  shim_counters_ = bus_->FaultCounts();
  transport_->Stop();
  if (!status.ok()) {
    return status;
  }
  if (bus_->faults_enabled()) {
    LOG(Info) << "process " << config_.process << " shim: "
              << FormatFaultCounters(shim_counters_);
  }
  LOG(Info) << "process " << config_.process << " clean exit; "
            << "tx records=" << transport_->records_sent()
            << " rx records=" << transport_->records_received();
  return Status::Ok();
}

Status ClusterNode::Train() {
  const TrainerOptions& t = config_.trainer;
  Status status = transport_->ConnectAll();
  if (!status.ok()) return status;
  status = control_->Rendezvous(config_.rendezvous_timeout_ms);
  if (!status.ok()) return status;
  LOG(Info) << "process " << config_.process << " joined: "
            << local_workers_.size() << " worker(s), " << servers_.size()
            << " server(s) over " << transport_->name();

  losses_.assign(local_workers_.size(),
                 std::vector<double>(static_cast<size_t>(config_.iterations), 0.0));
  accuracies_ = losses_;

  std::vector<std::thread> threads;
  std::vector<Status> worker_status(local_workers_.size());
  for (size_t i = 0; i < local_workers_.size(); ++i) {
    threads.emplace_back([this, i, &worker_status] {
      worker_status[i] = RunWorker(static_cast<int>(i));
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const Status& ws : worker_status) {
    if (!ws.ok()) return ws;
  }
  // Drain this process's egress (bus batches + socket queues) before
  // declaring completion, so process 0's shutdown decision never races
  // bytes still in our send path.
  bus_->FlushEgress();
  if (!local_workers_.empty()) {
    status = control_->SignalWorkersDone();
    if (!status.ok()) return status;
  }

  if (config_.process == 0) {
    std::set<int> worker_processes;
    for (int w = 0; w < t.num_workers; ++w) {
      worker_processes.insert(config_.transport.node_owner[static_cast<size_t>(w)]);
    }
    status = control_->AwaitWorkersAndBroadcastShutdown(worker_processes,
                                                        config_.shutdown_timeout_ms);
    if (!status.ok()) return status;
  }
  return control_->AwaitShutdown(config_.shutdown_timeout_ms);
}

Status ClusterNode::RunWorker(int local) {
  const int w = local_workers_[static_cast<size_t>(local)];
  const SyntheticDataset dataset = workloads::TinyDataset();
  for (int64_t iter = 0; iter < config_.iterations; ++iter) {
    const WorkerStep step =
        RunWorkerStep(dataset, config_.trainer, w, iter, *worker_nets_[static_cast<size_t>(local)],
                      *clients_[static_cast<size_t>(local)], *plan_);
    losses_[static_cast<size_t>(local)][static_cast<size_t>(iter)] = step.result.loss;
    accuracies_[static_cast<size_t>(local)][static_cast<size_t>(iter)] = step.result.accuracy;
  }
  return WriteWorkerResults(local);
}

Status ClusterNode::WriteWorkerResults(int local) {
  if (config_.out_dir.empty()) {
    return Status::Ok();
  }
  const int w = local_workers_[static_cast<size_t>(local)];
  const std::string base = config_.out_dir + "/worker_" + std::to_string(w);
  // Created fresh, like the checkpoint below: rewriting a previous run's
  // file in place forces a flush on close (see CreateFreshFile).
  FILE* f = CreateFreshFile(base + "_losses.txt");
  if (f == nullptr) {
    return InternalError("cannot write " + base + "_losses.txt");
  }
  for (int64_t i = 0; i < config_.iterations; ++i) {
    // %a round-trips doubles exactly — the trajectory oracle compares bits.
    std::fprintf(f, "%lld %a %a\n", static_cast<long long>(i),
                 losses_[static_cast<size_t>(local)][static_cast<size_t>(i)],
                 accuracies_[static_cast<size_t>(local)][static_cast<size_t>(i)]);
  }
  std::fclose(f);
  return SaveCheckpoint(*worker_nets_[static_cast<size_t>(local)],
                        config_.iterations, base + ".ckpt");
}

}  // namespace poseidon
