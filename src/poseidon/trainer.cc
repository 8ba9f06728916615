#include "src/poseidon/trainer.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/stats/stopwatch.h"
#include "src/stats/trace.h"

namespace poseidon {
namespace {

/// The one PlanRequest the options describe for `net`'s layers: the joint
/// search under kAuto, the paper's sequential decisions otherwise.
PlanRequest PlanRequestFor(const TrainerOptions& options, Network& net) {
  PlanRequest req;
  req.model_name = options.model_name;
  req.layers.reserve(static_cast<size_t>(net.num_layers()));
  for (int l = 0; l < net.num_layers(); ++l) {
    Layer& layer = net.layer(l);
    LayerSpec spec;
    spec.name = layer.name();
    spec.type = layer.type();
    spec.params = layer.num_params();
    spec.fc_m = layer.fc_m();
    spec.fc_n = layer.fc_n();
    req.layers.push_back(std::move(spec));
  }
  req.num_workers = options.num_workers;
  req.num_servers = options.num_servers;
  req.batch_per_worker = options.batch_per_worker;
  req.kv_pair_bytes = options.kv_pair_bytes;
  req.staleness = options.staleness;
  req.topk_density = options.topk_density;
  req.compression_min_floats = options.compression_min_floats;
  req.batch_max_messages = options.batch_options.max_batch_messages;
  req.batch_egress = options.batch_egress;
  if (options.plan_mode == TrainerPlanMode::kAuto) {
    // Joint search over everything the options left open; a non-zero
    // shards_per_server stays a hard pin.
    req.ps_shards_pinned = options.shards_per_server;
    req.max_shards = kMaxAutoShards;
    req.allow_batching = true;
    req.policy = PlanPolicy::kAuto;
    req.codec = PlanCodecPolicy::kAuto;
    req.joint = true;
  } else {
    // Paper mode. shards_per_server = 0 searches [1, kMaxAutoShards] with the
    // scheme pass costed at one shard; PlanComm re-resolves the schemes at
    // the chosen count.
    req.ps_shards_pinned = options.shards_per_server;
    req.max_shards = options.shards_per_server == 0 ? kMaxAutoShards : 1;
    req.policy = options.fc_policy;
    req.codec = options.ps_compression;
    req.joint = false;
  }
  return req;
}

}  // namespace

std::shared_ptr<const CommPlan> ResolveTrainerPlan(const TrainerOptions& options,
                                                   Network& net) {
  if (options.plan_mode == TrainerPlanMode::kFixed) {
    CHECK(options.fixed_plan != nullptr) << "plan_mode = kFixed needs a fixed_plan";
    return options.fixed_plan;
  }
  return std::make_shared<const CommPlan>(PlanComm(PlanRequestFor(options, net)));
}

namespace {

/// The cluster shape the Coordinator is built from: the plan's shard count
/// and staleness, everything else from `options`.
ClusterInfo ClusterInfoFor(const TrainerOptions& options, const CommPlan& plan) {
  ClusterInfo cluster;
  cluster.num_workers = options.num_workers;
  cluster.num_servers = options.num_servers;
  cluster.shards_per_server = plan.ps_shards;
  cluster.server_node_base = options.server_node_base;
  cluster.staleness = plan.staleness;
  cluster.batch_per_worker = options.batch_per_worker;
  cluster.kv_pair_bytes = options.kv_pair_bytes;
  return cluster;
}

/// The bus `plan` runs on: `num_nodes` nodes, egress batching exactly when
/// plan.batch_egress is set (with options.batch_options), and the fault
/// fabric when options.fault_plan has weather or options.enable_faults is
/// set. Construction and every plan swap bring their bus up through it.
std::unique_ptr<MessageBus> MakeTrainerBus(const TrainerOptions& options, const CommPlan& plan,
                                           int num_nodes) {
  auto bus = std::make_unique<MessageBus>(num_nodes);
  if (plan.batch_egress) {
    bus->EnableBatching(options.batch_options);
  }
  if (options.enable_faults || options.fault_plan.any()) {
    bus->EnableFaultInjection(options.fault_plan);
  }
  return bus;
}

/// What one worker step observed.
struct WorkerStep {
  LossResult result;       ///< the forward pass's loss and batch accuracy
  int64_t compute_ns = 0;  ///< forward + backward wall time
  int64_t wait_ns = 0;     ///< wall time blocked in WaitAll
};

/// One worker iteration of paper Algorithm 2: worker `w`'s batch of `iter`,
/// forward, then backward layer by layer, scheduling each layer's sync as
/// its gradient lands (wait-free backpropagation), then the BSP barrier.
/// Records the "iteration", "forward", "backward" and "wait_all" spans.
/// `crash_after` >= 0 simulates the worker dying after that many backward
/// steps: the step returns with its syncs in flight and never reaches
/// WaitAll (wait_ns 0).
WorkerStep RunWorkerStep(const SyntheticDataset& dataset, const TrainerOptions& options, int w,
                         int64_t iter, Network& net, ClientLibrary& client, const CommPlan& plan,
                         int crash_after) {
  TraceSpan iteration_span("iteration", "trainer", iter);
  const Batch batch = dataset.TrainBatch(iter, options.batch_per_worker, w, options.num_workers);
  WorkerStep step;
  const Stopwatch watch;
  {
    TraceSpan forward_span("forward", "trainer", iter);
    step.result = net.Forward(batch.images, batch.labels);
  }
  client.StartIteration(iter);
  int backward_steps = 0;
  for (int l = net.num_layers() - 1; l >= 0; --l) {
    if (crash_after >= 0 && backward_steps >= crash_after) {
      break;
    }
    {
      TraceSpan backward_span("backward", "trainer", l);
      net.BackwardThrough(l, NeedsWeightGrad(plan.layers[static_cast<size_t>(l)]));
    }
    client.ScheduleSync(l);  // wait-free backpropagation
    ++backward_steps;
  }
  step.compute_ns = watch.ElapsedNs();
  if (crash_after >= 0) {
    return step;
  }
  {
    TraceSpan wait_span("wait_all", "trainer", iter);
    client.WaitAll();  // BSP barrier: every layer synchronized
  }
  step.wait_ns = watch.ElapsedNs() - step.compute_ns;
  return step;
}

}  // namespace

PoseidonTrainer::PoseidonTrainer(NetworkFactory factory, TrainerOptions options,
                                 std::shared_ptr<Transport> transport)
    : options_(options), factory_(std::move(factory)) {
  CHECK_GT(options_.num_workers, 0);
  CHECK_GT(options_.num_servers, 0);
  CHECK_GE(options_.server_node_base, 0);
  CHECK(transport == nullptr ||
        (!options_.crash.active() && !options_.failure_detection.enabled))
      << "crash recovery needs every role in this process";
  if (options_.crash.active()) {
    CHECK(options_.failure_detection.enabled)
        << "a crash plan without failure detection deadlocks the cluster";
    CHECK_GE(options_.crash.layers_before_crash, 0);
    CHECK_GT(options_.checkpoint_every, 0) << "recovery requires checkpoints";
    CHECK(!options_.checkpoint_dir.empty()) << "recovery requires a checkpoint dir";
  }

  // Identical replicas: the factory must be deterministic. Every process
  // builds the init net (the plan and the KV masters come from it), and a
  // replica only for each worker it hosts.
  init_net_ = factory_();
  worker_nets_.resize(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    crashed_.push_back(std::make_unique<std::atomic<bool>>(false));
    if (transport == nullptr || transport->IsLocal(w)) {
      hosted_workers_.push_back(w);
      worker_nets_[static_cast<size_t>(w)] = factory_();
      CHECK_EQ(worker_net(w).num_layers(), init_net_->num_layers());
    }
  }
  if (!options_.restore_path.empty()) {
    // Restore parameters into every replica (and into the init net the KV
    // shards take their master copies from) before anything starts serving.
    StatusOr<int64_t> restored = LoadCheckpoint(options_.restore_path, init_net_.get());
    CHECK(restored.ok()) << restored.status().ToString();
    next_iter_ = *restored;
    for (const int w : hosted_workers_) {
      CHECK(LoadCheckpoint(options_.restore_path, &worker_net(w)).ok());
    }
  }

  CHECK_GE(options_.shards_per_server, 0);
  CHECK_GE(options_.staleness, 0);
  std::shared_ptr<const CommPlan> plan = ResolveTrainerPlan(options_, *init_net_);
  const int num_nodes = std::max(options_.num_workers,
                                 options_.server_node_base + options_.num_servers);
  bus_ = MakeTrainerBus(options_, *plan, num_nodes);
  if (transport != nullptr) {
    // Before InstallPlan registers the first mailbox.
    bus_->AttachTransport(std::move(transport));
  }
  if (options_.failure_detection.enabled) {
    // Recovery replays the in-flight clock through the KV shards, which
    // reconcile duplicate pushes. Peer-to-peer layers (SFB, ring, tree) have
    // nothing to reconcile: their peers' messages to the dead incarnation are
    // lost, so a restart would hang or abort.
    for (const PlanLayerChoice& layer : plan->layers) {
      CHECK(layer.scheme == PlannedScheme::kNone || layer.scheme == PlannedScheme::kPS ||
            layer.scheme == PlannedScheme::kOneBit)
          << "failure recovery covers KV-path layers only, but layer '" << layer.layer
          << "' is planned " << PlannedSchemeName(layer.scheme);
    }
  }
  InstallPlan(std::move(plan));

  if (options_.failure_detection.enabled) {
    detector_ = std::make_unique<FailureDetector>(
        bus_.get(), options_.num_workers, options_.failure_detection,
        [this](int w) { OnWorkerSuspected(w); });
    detector_->Start();
    for (int w = 0; w < options_.num_workers; ++w) {
      tickers_.push_back(std::make_unique<HeartbeatTicker>(w, bus_.get(),
                                                           options_.failure_detection));
    }
  }
}

void PoseidonTrainer::InstallPlan(std::shared_ptr<const CommPlan> plan) {
  plan_ = std::move(plan);
  CHECK_EQ(plan_->layers.size(), static_cast<size_t>(init_net_->num_layers()))
      << "plan does not match the model (layer count)";
  for (int l = 0; l < init_net_->num_layers(); ++l) {
    const std::string& name = plan_->layers[static_cast<size_t>(l)].layer;
    CHECK(name == init_net_->layer(l).name())
        << "plan layer " << l << " is '" << name << "', model has '"
        << init_net_->layer(l).name() << "'";
  }
  coordinator_ = std::make_unique<Coordinator>(*init_net_, ClusterInfoFor(options_, *plan_));
  servers_.resize(static_cast<size_t>(options_.num_servers));
  for (int s = 0; s < options_.num_servers; ++s) {
    if (hosts(coordinator_->cluster().ServerNode(s))) {
      servers_[static_cast<size_t>(s)] = std::make_unique<KvServer>(
          s, next_iter_, *coordinator_, *plan_, *init_net_, bus_.get(), options_.sgd);
    }
  }
  clients_.resize(static_cast<size_t>(options_.num_workers));
  for (const int w : hosted_workers_) {
    clients_[static_cast<size_t>(w)] = MakeClient(w);
  }
  for (auto& server : servers_) {
    if (server != nullptr) server->Start();
  }
}

std::unique_ptr<ClientLibrary> PoseidonTrainer::MakeClient(int w) {
  return std::make_unique<ClientLibrary>(w, *coordinator_, *plan_, &worker_net(w), bus_.get(),
                                         options_.sgd, options_.syncer_threads);
}

void PoseidonTrainer::AdoptPlan(std::shared_ptr<const CommPlan> new_plan) {
  CHECK(!shut_down_);
  CHECK(new_plan != nullptr);
  if (plan_ != nullptr && new_plan->hash == plan_->hash) {
    return;  // already running this plan
  }
  CHECK_EQ(coordinator_->cluster().staleness, 0)
      << "plan swaps need BSP: replicas must be identical at the boundary";
  CHECK_EQ(new_plan->staleness, 0);
  CHECK(!options_.crash.active() && detector_ == nullptr)
      << "plan swaps and failure recovery cannot compose";
  CHECK(bus_->transport() == nullptr) << "plan swaps need every role in this process";

  // Quiesce the old communication stack. Workers are parked between Train()
  // windows, so nothing is in flight beyond the shards' run loops.
  for (auto& server : servers_) {
    server->Stop();
  }
  bus_->CloseAll();
  clients_.clear();
  servers_.clear();

  // Fresh fabric under the new plan's knobs. The caller's per-node egress
  // limits and link accounting belong to the fabric, not the plan, so they
  // carry over.
  const int num_nodes = bus_->num_nodes();
  std::vector<double> egress_limits(static_cast<size_t>(num_nodes), 0.0);
  for (int n = 0; n < num_nodes; ++n) {
    egress_limits[static_cast<size_t>(n)] = bus_->egress_limit(n);
  }
  const bool link_stats = bus_->link_stats_enabled();
  bus_ = MakeTrainerBus(options_, *new_plan, num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    bus_->SetEgressLimit(n, egress_limits[static_cast<size_t>(n)]);
  }
  if (link_stats) {
    bus_->EnableLinkStats();
  }

  // Under BSP the replicas are identical here; refresh the init net so the
  // new KV masters adopt the live parameters bitwise.
  auto src = worker_nets_[0]->LayerParams();
  auto dst = init_net_->LayerParams();
  CHECK_EQ(src.size(), dst.size());
  for (size_t l = 0; l < src.size(); ++l) {
    CHECK_EQ(src[l].size(), dst[l].size());
    for (size_t b = 0; b < src[l].size(); ++b) {
      const Tensor& from = *src[l][b].value;
      Tensor& to = *dst[l][b].value;
      CHECK_EQ(from.size(), to.size());
      std::copy(from.data(), from.data() + from.size(), to.data());
    }
  }

  InstallPlan(std::move(new_plan));
}

PoseidonTrainer::~PoseidonTrainer() { Shutdown(); }

void PoseidonTrainer::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  // Liveness machinery first: no beats, suspicions, or recoveries may fire
  // once teardown starts.
  tickers_.clear();
  if (detector_ != nullptr) {
    detector_->Shutdown();
  }
  for (auto& server : servers_) {
    if (server != nullptr) server->Stop();
  }
  bus_->CloseAll();
}

void PoseidonTrainer::RunWorkerLoop(int w, int64_t from_iter) {
  const int64_t end_iter = window_.first_iter + window_.iterations;
  Network& net = *worker_nets_[static_cast<size_t>(w)];
  ClientLibrary& client = *clients_[static_cast<size_t>(w)];
  const CommPlan& plan = *plan_;  // swapped only between windows
  for (int64_t iter = from_iter; iter < end_iter; ++iter) {
    const size_t i = static_cast<size_t>(iter - window_.first_iter);
    const bool crash_now = options_.crash.active() && w == options_.crash.worker &&
                           iter == options_.crash.iter &&
                           !crash_fired_.load(std::memory_order_acquire);
    const WorkerStep step =
        RunWorkerStep(*window_.dataset, options_, w, iter, net, client, plan,
                      crash_now ? options_.crash.layers_before_crash : -1);
    (*window_.losses)[static_cast<size_t>(w)][i] = step.result.loss;
    (*window_.accuracies)[static_cast<size_t>(w)][i] = step.result.accuracy;
    if (crash_now) {
      // Simulated process death: in-flight syncs are orphaned, beats
      // cease, no WaitAll, no cleanup. The failure detector takes it from
      // here (OnWorkerSuspected -> RecoverWorker).
      crash_fired_.store(true, std::memory_order_release);
      crashed_[static_cast<size_t>(w)]->store(true, std::memory_order_release);
      tickers_[static_cast<size_t>(w)]->Stop();
      LOG(Warning) << "worker " << w << " crashed at iteration " << iter << " after "
                   << std::min(options_.crash.layers_before_crash, net.num_layers())
                   << " backward steps";
      return;
    }
    (*window_.compute_ms)[static_cast<size_t>(w)][i] =
        static_cast<double>(step.compute_ns) * 1e-6;
    (*window_.comm_wait_ms)[static_cast<size_t>(w)][i] =
        static_cast<double>(step.wait_ns) * 1e-6;
    compute_ns_total_.fetch_add(step.compute_ns, std::memory_order_relaxed);
    comm_wait_ns_total_.fetch_add(step.wait_ns, std::memory_order_relaxed);
    MaybeCheckpoint(w, iter + 1);
  }
}

std::string PoseidonTrainer::CheckpointPath(int w) const {
  return options_.checkpoint_dir + "/worker_" + std::to_string(w) + ".ckpt";
}

void PoseidonTrainer::MaybeCheckpoint(int w, int64_t next_iter) {
  if (options_.checkpoint_every <= 0 || options_.checkpoint_dir.empty()) {
    return;
  }
  if (next_iter % options_.checkpoint_every != 0 && next_iter != window_.first_iter) {
    return;
  }
  const Status saved =
      SaveCheckpoint(*worker_nets_[static_cast<size_t>(w)], next_iter, CheckpointPath(w));
  CHECK(saved.ok()) << saved.ToString();
}

void PoseidonTrainer::OnWorkerSuspected(int w) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  if (!crashed_[static_cast<size_t>(w)]->load(std::memory_order_acquire)) {
    // False positive (late heartbeats under load). Clear the suspicion so
    // the detector re-arms — a latched suspicion would suppress the callback
    // for a later real crash of this worker and hang the cluster.
    LOG(Warning) << "failure detector suspected live worker " << w
                 << " (late heartbeats); clearing";
    detector_->NotifyRecovered(w);
    return;
  }
  ++recoveries_in_flight_;
  recovery_threads_.emplace_back([this, w] { RecoverWorker(w); });
}

void PoseidonTrainer::RecoverWorker(int w) {
  TraceSpan recovery_span("recovery", "trainer", w);
  // 1. Fence the dead incarnation: close + unregister its data endpoints
  // (syncer + collective ports, NOT the coordinator's monitor mailbox — a
  // colocated monitor survives the worker-process death) so the orphaned
  // syncer loops find their mailboxes closed and the old client library can
  // drain. Replies the shards send into this window are dropped and
  // re-earned by the replay.
  bus_->CloseEndpoints(w, kSyncerPortBase, kMonitorPort);
  clients_[static_cast<size_t>(w)].reset();

  // 2. Rehydrate a fresh replica from the latest recovery checkpoint; its
  // cursor is the in-flight clock to replay.
  auto net = factory_();
  StatusOr<int64_t> cursor = LoadCheckpoint(CheckpointPath(w), net.get());
  CHECK(cursor.ok()) << "worker " << w << " restart: " << cursor.status().ToString();
  worker_nets_[static_cast<size_t>(w)] = std::move(net);

  // 3. Re-register with the shards: a fresh client library recreates every
  // syncer mailbox at the same addresses (sequence streams just continue).
  clients_[static_cast<size_t>(w)] = MakeClient(w);

  // 4. Rejoin the cluster and replay from the checkpoint cursor. The replay
  // re-pushes the in-flight clock; shard reconciliation applies each
  // (layer, clock) aggregate exactly once (see KvShard).
  crashed_[static_cast<size_t>(w)]->store(false, std::memory_order_release);
  detector_->NotifyRecovered(w);
  tickers_[static_cast<size_t>(w)]->Resume();
  LOG(Info) << "worker " << w << " restarted from iteration " << *cursor;
  RunWorkerLoop(w, *cursor);
  recoveries_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    --recoveries_in_flight_;
  }
  recovery_cv_.notify_all();
}

std::vector<IterationStats> PoseidonTrainer::Train(const SyntheticDataset& dataset,
                                                   int iterations) {
  CHECK(!shut_down_);
  CHECK_GT(iterations, 0);
  CHECK(!hosted_workers_.empty()) << "this trainer hosts no worker";
  // Indexed by worker id; only the hosted workers' rows are filled.
  std::vector<std::vector<double>> losses(
      static_cast<size_t>(options_.num_workers),
      std::vector<double>(static_cast<size_t>(iterations), 0.0));
  std::vector<std::vector<double>> accuracies = losses;
  std::vector<std::vector<double>> compute_ms = losses;
  std::vector<std::vector<double>> comm_wait_ms = losses;

  const int64_t first_iter = next_iter_;
  window_ = TrainWindow{&dataset,    first_iter,  iterations,   &losses,
                        &accuracies, &compute_ms, &comm_wait_ms};
  if (options_.checkpoint_every > 0 && !options_.checkpoint_dir.empty()) {
    // Baseline checkpoint so a crash in the very first window iteration can
    // restart (replicas are quiescent and identical here).
    for (const int w : hosted_workers_) {
      MaybeCheckpoint(w, first_iter);
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(hosted_workers_.size());
  for (const int w : hosted_workers_) {
    threads.emplace_back([this, w, first_iter] { RunWorkerLoop(w, first_iter); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // A crashed worker's thread returned early; its recovery thread finishes
  // the window. Wait for the restart to be spawned and completed before
  // declaring the window done.
  if (options_.crash.active() && crash_fired_.load()) {
    std::unique_lock<std::mutex> lock(recovery_mutex_);
    recovery_cv_.wait(lock, [&] {
      return recoveries_in_flight_ == 0 &&
             !crashed_[static_cast<size_t>(options_.crash.worker)]->load();
    });
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    for (auto& thread : recovery_threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
    recovery_threads_.clear();
  }
  next_iter_ += iterations;

  const int hosted = static_cast<int>(hosted_workers_.size());
  std::vector<IterationStats> stats(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    IterationStats& s = stats[static_cast<size_t>(i)];
    s.iter = first_iter + i;
    for (const int w : hosted_workers_) {
      const double loss = losses[static_cast<size_t>(w)][static_cast<size_t>(i)];
      const double accuracy = accuracies[static_cast<size_t>(w)][static_cast<size_t>(i)];
      s.workers.push_back(LossResult{loss, accuracy});
      s.mean_loss += loss;
      s.mean_accuracy += accuracy;
      s.compute_ms += compute_ms[static_cast<size_t>(w)][static_cast<size_t>(i)];
      s.comm_wait_ms += comm_wait_ms[static_cast<size_t>(w)][static_cast<size_t>(i)];
    }
    s.mean_loss /= hosted;
    s.mean_accuracy /= hosted;
    s.compute_ms /= hosted;
    s.comm_wait_ms /= hosted;
  }
  return stats;
}

StallBreakdown PoseidonTrainer::stall_breakdown() const {
  StallBreakdown breakdown;
  breakdown.compute_s =
      static_cast<double>(compute_ns_total_.load(std::memory_order_relaxed)) * 1e-9;
  breakdown.comm_wait_s =
      static_cast<double>(comm_wait_ns_total_.load(std::memory_order_relaxed)) * 1e-9;
  int64_t ssp_ns = 0;
  for (const auto& server : servers_) {
    if (server != nullptr) ssp_ns += server->SspStallNs();
  }
  breakdown.ssp_stall_s = static_cast<double>(ssp_ns) * 1e-9;
  return breakdown;
}

LossResult PoseidonTrainer::EvaluateTest(const SyntheticDataset& dataset) {
  const Batch test = dataset.TestSet();
  return worker_net(0).Evaluate(test.images, test.labels);
}

Status PoseidonTrainer::SaveCheckpointTo(const std::string& path) {
  return SaveCheckpoint(worker_net(0), next_iter_, path);
}

int PoseidonTrainer::shards_per_server() const {
  return coordinator_->cluster().shards_per_server;
}

bool PoseidonTrainer::hosts(int node) const {
  return bus_->transport() == nullptr || bus_->transport()->IsLocal(node);
}

Network& PoseidonTrainer::worker_net(int w) {
  CHECK_GE(w, 0);
  CHECK_LT(w, options_.num_workers);
  CHECK(worker_nets_[static_cast<size_t>(w)] != nullptr)
      << "worker " << w << " is not hosted here";
  return *worker_nets_[static_cast<size_t>(w)];
}

const KvServer& PoseidonTrainer::server(int s) const {
  CHECK_GE(s, 0);
  CHECK_LT(s, options_.num_servers);
  CHECK(servers_[static_cast<size_t>(s)] != nullptr) << "server " << s << " is not hosted here";
  return *servers_[static_cast<size_t>(s)];
}

}  // namespace poseidon
