#include "src/poseidon/cluster_node.h"

#include <algorithm>
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
  CHECK(!t.enable_faults && !t.fault_plan.any())
      << "bus-level fault injection is in-process only; use the transport's "
         "loss shim (SocketTransportOptions::shim) for socket chaos";
  CHECK(!t.crash.active() && !t.failure_detection.enabled)
      << "crash/recovery plans are in-process-trainer features";
  CHECK(t.plan_mode == TrainerPlanMode::kPaper)
      << "multi-process clusters run the paper-mode plan";
  CHECK(t.ps_compression == PlanCodecPolicy::kNone)
      << "compressed pushes cannot cross processes: the wire format rejects "
         "fp16/int8/top-k codec ids";
  CHECK_GT(config_.iterations, 0);
  CHECK_EQ(config_.process, config_.transport.self);
}

ClusterNode::~ClusterNode() = default;

Status ClusterNode::Run() {
  const TrainerOptions& t = config_.trainer;
  const int num_nodes =
      std::max(t.num_workers, t.server_node_base + t.num_servers);
  if (static_cast<int>(config_.transport.node_owner.size()) != num_nodes) {
    return InvalidArgumentError("node_owner must map all " +
                                std::to_string(num_nodes) + " bus nodes");
  }

  // Every process builds the same coordinator from the same shape; replicas
  // and the server master copies come from one deterministic factory.
  init_net_ = workloads::TinyMlpFactory(config_.hidden_layers)();
  ClusterInfo cluster;
  cluster.num_workers = t.num_workers;
  cluster.num_servers = t.num_servers;
  cluster.shards_per_server = t.shards_per_server;
  cluster.server_node_base = t.server_node_base;
  cluster.staleness = t.staleness;
  cluster.batch_per_worker = t.batch_per_worker;
  cluster.kv_pair_bytes = t.kv_pair_bytes;
  coordinator_ = std::make_unique<Coordinator>(*init_net_, cluster);
  plan_ = ResolveTrainerPlan(t, *init_net_);

  bus_ = std::make_unique<MessageBus>(num_nodes);
  if (t.batch_egress) {
    bus_->EnableBatching(t.batch_options);
  }
  transport_ = std::make_shared<SocketTransport>(config_.transport);
  // Handler installation must precede Start(): control records may arrive
  // the moment the listener is up.
  control_ = std::make_unique<ClusterControl>(
      transport_.get(), static_cast<int>(config_.transport.processes.size()));
  bus_->AttachTransport(transport_);
  Status status = transport_->Start(bus_.get());
  if (!status.ok()) return status;

  // This process's slice of the node space.
  for (int w = 0; w < t.num_workers; ++w) {
    if (transport_->IsLocal(w)) local_workers_.push_back(w);
  }
  for (int s = 0; s < t.num_servers; ++s) {
    if (transport_->IsLocal(cluster.ServerNode(s))) local_servers_.push_back(s);
  }

  // Register every local mailbox BEFORE announcing readiness: no data frame
  // flows until every process passed the rendezvous barrier, so no frame can
  // beat its destination mailbox.
  for (int s : local_servers_) {
    servers_.push_back(std::make_unique<KvServer>(
        s, /*first_iter=*/0, *coordinator_, *plan_, *init_net_, bus_.get(), t.sgd));
  }
  for (int w : local_workers_) {
    worker_nets_.push_back(workloads::TinyMlpFactory(config_.hidden_layers)());
    clients_.push_back(std::make_unique<ClientLibrary>(
        w, *coordinator_, *plan_, worker_nets_.back().get(), bus_.get(), t.sgd,
        t.syncer_threads));
  }
  for (auto& server : servers_) {
    server->Start();
  }

  status = transport_->ConnectAll();
  if (!status.ok()) return status;
  status = control_->Rendezvous(config_.rendezvous_timeout_ms);
  if (!status.ok()) return status;
  LOG(Info) << "process " << config_.process << " joined: "
            << local_workers_.size() << " worker(s), " << local_servers_.size()
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
  status = control_->AwaitShutdown(config_.shutdown_timeout_ms);
  if (!status.ok()) return status;

  // Same teardown order as PoseidonTrainer::Shutdown, restricted to the
  // local slice: poison each local shard, join, close mailboxes, stop I/O.
  for (size_t i = 0; i < servers_.size(); ++i) {
    for (int shard = 0; shard < servers_[i]->num_shards(); ++shard) {
      Message shutdown;
      shutdown.type = MessageType::kShutdown;
      shutdown.from = Address{0, kSyncerPortBase};
      shutdown.to = coordinator_->cluster().ShardAddress(local_servers_[i], shard);
      const Status sent = bus_->Send(std::move(shutdown));
      CHECK(sent.ok()) << sent.ToString();
    }
  }
  for (auto& server : servers_) {
    server->Join();
  }
  bus_->CloseAll();
  shim_counters_ = transport_->ShimCounters();
  wire_counters_ = bus_->WireCounters();
  transport_->Stop();
  if (config_.transport.shim.any()) {
    LOG(Info) << "process " << config_.process << " shim: "
              << FormatFaultCounters(shim_counters_);
  }
  LOG(Info) << "process " << config_.process << " clean exit; "
            << "tx records=" << transport_->records_sent()
            << " rx records=" << transport_->records_received();
  return Status::Ok();
}

Status ClusterNode::RunWorker(int local) {
  // Bitwise-identical arithmetic to PoseidonTrainer::RunWorkerLoop: same
  // batch schedule, same forward/backward order, same sync scheduling.
  const TrainerOptions& t = config_.trainer;
  const int w = local_workers_[static_cast<size_t>(local)];
  const SyntheticDataset dataset = workloads::TinyDataset();
  Network& net = *worker_nets_[static_cast<size_t>(local)];
  ClientLibrary& client = *clients_[static_cast<size_t>(local)];
  for (int64_t iter = 0; iter < config_.iterations; ++iter) {
    const Batch batch =
        dataset.TrainBatch(iter, t.batch_per_worker, w, t.num_workers);
    const LossResult result = net.Forward(batch.images, batch.labels);
    losses_[static_cast<size_t>(local)][static_cast<size_t>(iter)] = result.loss;
    accuracies_[static_cast<size_t>(local)][static_cast<size_t>(iter)] =
        result.accuracy;
    client.StartIteration(iter);
    for (int l = net.num_layers() - 1; l >= 0; --l) {
      net.BackwardThrough(l);
      client.ScheduleSync(l);  // wait-free backpropagation
    }
    client.WaitAll();  // BSP barrier: every layer synchronized
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
