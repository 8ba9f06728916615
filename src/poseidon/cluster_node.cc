#include "src/poseidon/cluster_node.h"

#include <algorithm>
#include <cstdio>
#include <set>

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
  const int num_nodes = std::max(t.num_workers, t.server_node_base + t.num_servers);
  if (static_cast<int>(config_.transport.node_owner.size()) != num_nodes) {
    return InvalidArgumentError("node_owner must map all " + std::to_string(num_nodes) +
                                " bus nodes");
  }
  transport_ = std::make_shared<SocketTransport>(config_.transport);
  // Handler installation must precede Start(): control records may arrive
  // the moment the listener is up.
  control_ = std::make_unique<ClusterControl>(
      transport_.get(), static_cast<int>(config_.transport.processes.size()));
  // The trainer registers every local mailbox before the listener is up, and
  // no data frame flows until every process passed the rendezvous barrier.
  trainer_ = std::make_unique<PoseidonTrainer>(workloads::TinyMlpFactory(config_.hidden_layers),
                                               t, transport_);
  Status status = transport_->Start(&trainer_->bus());
  if (status.ok()) {
    status = Train();
  }

  // The one teardown, whatever Train returned: stop the hosted shards and
  // close the mailboxes, then stop I/O. The trainer lives on: the
  // transport's reader threads deliver into its bus until Stop returns.
  trainer_->Shutdown();
  transport_->Stop();
  if (!status.ok()) {
    return status;
  }
  if (trainer_->bus().faults_enabled()) {
    LOG(Info) << "process " << config_.process << " shim: "
              << FormatFaultCounters(trainer_->bus().FaultCounts());
  }
  LOG(Info) << "process " << config_.process << " clean exit; "
            << "tx records=" << transport_->records_sent()
            << " rx records=" << transport_->records_received();
  return Status::Ok();
}

const PoseidonTrainer& ClusterNode::trainer() const {
  CHECK(trainer_ != nullptr) << "ClusterNode::trainer() before Run()";
  return *trainer_;
}

Status ClusterNode::Train() {
  const TrainerOptions& t = config_.trainer;
  Status status = transport_->ConnectAll();
  if (!status.ok()) return status;
  status = control_->Rendezvous(config_.rendezvous_timeout_ms);
  if (!status.ok()) return status;
  const std::vector<int>& workers = trainer_->hosted_workers();
  int servers = 0;
  for (int s = 0; s < t.num_servers; ++s) {
    servers += trainer_->hosts(trainer_->coordinator().cluster().ServerNode(s)) ? 1 : 0;
  }
  LOG(Info) << "process " << config_.process << " joined: " << workers.size() << " worker(s), "
            << servers << " server(s) over " << transport_->name();

  if (!workers.empty()) {
    const std::vector<IterationStats> stats =
        trainer_->Train(workloads::TinyDataset(), config_.iterations);
    for (size_t i = 0; i < workers.size(); ++i) {
      status = WriteWorkerResults(workers[i], i, stats);
      if (!status.ok()) return status;
    }
    // Drain this process's egress (bus batches + socket queues) before
    // declaring completion, so process 0's shutdown decision never races
    // bytes still in our send path.
    trainer_->bus().FlushEgress();
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

Status ClusterNode::WriteWorkerResults(int w, size_t index,
                                       const std::vector<IterationStats>& stats) {
  if (config_.out_dir.empty()) {
    return Status::Ok();
  }
  const std::string base = config_.out_dir + "/worker_" + std::to_string(w);
  // Created fresh, like the checkpoint below: rewriting a previous run's
  // file in place forces a flush on close (see CreateFreshFile).
  FILE* f = CreateFreshFile(base + "_losses.txt");
  if (f == nullptr) {
    return InternalError("cannot write " + base + "_losses.txt");
  }
  for (const IterationStats& s : stats) {
    // %a round-trips doubles exactly — the trajectory oracle compares bits.
    std::fprintf(f, "%lld %a %a\n", static_cast<long long>(s.iter), s.workers[index].loss,
                 s.workers[index].accuracy);
  }
  std::fclose(f);
  return SaveCheckpoint(trainer_->worker_net(w), trainer_->next_iter(), base + ".ckpt");
}

}  // namespace poseidon
