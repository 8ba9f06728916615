// End-to-end training benchmark harness (see README.md in this directory).
//
// Trains real models through the threaded Poseidon runtime. Three workloads
// drive PoseidonTrainer in process; mlp_socket runs three ClusterNode members
// as threads of this process over loopback TCP. The harness observes the
// runtime only through public calls (Train, TrainSingleNode, MessageBus and
// KvServer counters, MeasureSocketBandwidth, Tracer) and wraps each call it
// times in a span of its own ("e2e.*", category "harness").
//
//   e2e_bench --workload=NAME --work-dir=DIR [--seed=N] [--seconds=S]
//             [--trace-out=DIR] [--smoke]
//
// Untraced runs print one JSON result line with the end-to-end metrics:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace-out the run writes Chrome trace chunks and harness.json into
// that directory instead, and reduce_trace.py turns them into the per-layer
// metrics. A failed correctness check exits 1 with failed = attempted.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/nn/builders.h"
#include "src/nn/layers.h"
#include "src/nn/single_trainer.h"
#include "src/poseidon/cluster_node.h"
#include "src/poseidon/trainer.h"
#include "src/poseidon/workloads.h"
#include "src/stats/stopwatch.h"
#include "src/stats/trace.h"
#include "src/transport/socket_bench.h"

namespace poseidon {
namespace {

constexpr int kWorkers = 2;
constexpr int kServers = 2;
// Per-node egress limit. Without it the in-process bus moves bytes at memcpy
// speed, and a plan that sends 10x the bytes would look free.
constexpr double kEgressBytesPerSec = 20e6;
constexpr int kWarmupIters = 5;
// setup_s is the median of at least kSetupRepeats set-ups that together
// take at least kSetupSeconds, so a set-up of a few ms still gets a steady
// median.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 1.0;
// loss_final averages the kLossWindow iterations that end at timed iteration
// kLossStep (at iteration kLossStep of a cluster run), so it does not depend
// on how many iterations fit the window.
constexpr int kLossWindow = 10;
constexpr int kLossStep = 40;
// A timed window holds at least this many iteration samples, so at least 10
// lie beyond iter_ms_p90.
constexpr int kMinTimedIters = 100;
static_assert(kMinTimedIters >= kLossStep, "the loss step must fall in the timed window");
// Every parameter tensor must end the timed window at least this far from
// its initial value, relative to its initial norm. After 45 iterations every
// layer of the in-process workloads has moved by 0.1 or more; weight decay
// alone would move it by about 5e-4.
constexpr double kMinLayerMove = 0.01;
// Offsets the replica-init seed from the dataset seed.
constexpr uint64_t kInitSeedOffset = 1000;
// mlp_socket: controller + two colocated worker/server nodes. The cluster
// trains a fixed workload (ClusterNode builds TinyDataset itself), so every
// cluster run of one length repeats the same trajectory.
constexpr int kClusterProcesses = 3;
constexpr int kMlpHiddenLayers = 8;
constexpr int kClusterRunIters = 200;
constexpr int kClusterTimeoutMs = 20000;
// Cluster listen ports rotate through [kPortBase, kPortBase + kPortSpan),
// below Linux's default ephemeral range (32768 and up): an outgoing
// connection can then never take a port before its member binds it, and
// three ports of one run are always distinct.
constexpr int kPortBase = 20000;
constexpr int kPortSpan = 10000;
// A traced window exports and resets the tracer after every chunk. Train()
// spawns fresh worker threads and each thread records into a ring of its
// own, so without the reset the rings would pile up over the window. A
// Train() call records ~100 events per thread; a cluster run records ~11k
// on each syncer thread.
constexpr int kTraceChunkIters = 10;
constexpr int64_t kTrainerRingEvents = 1 << 12;
constexpr int64_t kClusterRingEvents = 1 << 15;
// Shares of --seconds in a traced run: the untraced reference window, the
// traced window and the single-node probe. Each traced cluster run writes
// ~3 MB of trace, so the cluster's traced window is shorter.
constexpr double kReferenceShare = 0.4;
constexpr double kTracedShare = 0.4;
constexpr double kClusterTracedShare = 0.1;
constexpr double kSingleNodeShare = 0.2;
constexpr int kComputeProbeReps = 200;
constexpr int kSocketProbeRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 28.0;
  std::string work_dir;
  std::string trace_out;  // empty: untraced run
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted` counts worker-iterations in the timed
/// (or traced) window.
struct RunResult {
  std::vector<std::string> failures;
  int64_t attempted = 0;
  std::vector<Metric> metrics;

  void Fail(const std::string& why) {
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", why.c_str());
    failures.push_back(why);
  }
  void Add(const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
};

// ------------------------------------------------------------------ stats --

/// Linear-interpolation quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Quantile of a bucketed histogram, interpolating linearly inside the
/// bucket; the overflow bucket ends at the recorded max.
double HistogramQuantile(const Histogram::Snapshot& h, double q) {
  if (h.total_count == 0) return 0.0;
  const double target = q * static_cast<double>(h.total_count);
  int64_t seen = 0;
  for (size_t b = 0; b < h.counts.size(); ++b) {
    const int64_t count = h.counts[b];
    if (count == 0) continue;
    if (static_cast<double>(seen + count) >= target) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(h.edges[b - 1]);
      const double hi =
          b < h.edges.size() ? static_cast<double>(h.edges[b]) : static_cast<double>(h.max);
      return lo + (hi - lo) * (target - static_cast<double>(seen)) / static_cast<double>(count);
    }
    seen += count;
  }
  return static_cast<double>(h.max);
}

bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kSetupRepeats || total < kSetupSeconds;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------- JSON --

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string ResultFields(const RunResult& r) {
  const bool correct = r.failures.empty();
  return std::string("\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(correct ? 0 : r.attempted);
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  return out ? Status::Ok() : UnavailableError("cannot write " + path);
}

bool ReadText(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  text->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

// ---------------------------------------------------------------- tracing --

/// The traced window's output: Chrome trace chunks trace_<k>.json, each
/// exported and followed by a tracer reset at a point where the runtime is
/// quiescent (between Train() calls or cluster runs).
class TraceChunks {
 public:
  TraceChunks(std::string dir, int64_t ring_events) : dir_(std::move(dir)) {
    Tracer::Reset();
    Tracer::Enable(ring_events);
  }

  void Flush(RunResult* r) {
    dropped_ += Tracer::dropped();
    char name[32];
    std::snprintf(name, sizeof(name), "trace_%03zu.json", files_.size());
    const Status written = Tracer::WriteChromeJson(dir_ + "/" + name);
    if (!written.ok()) r->Fail(written.ToString());
    files_.push_back(name);
    Tracer::Reset();
  }

  /// Flushes the last chunk, stops tracing and writes harness.json: the
  /// harness-side metrics, the chunk list, and the worker-iteration count
  /// reduce_trace.py normalizes span totals by.
  void Finish(int64_t worker_iterations, RunResult* r) {
    Flush(r);
    Tracer::Disable();
    r->Add("trace.dropped_events", static_cast<double>(dropped_), "count");
    std::string chunks;
    for (const std::string& file : files_) {
      chunks += (chunks.empty() ? "\"" : ", \"") + file + "\"";
    }
    const Status written = WriteText(
        dir_ + "/harness.json",
        "{" + ResultFields(*r) + ", \"worker_iterations\": " + std::to_string(worker_iterations) +
            ", \"chunks\": [" + chunks + "], \"metrics\": " + MetricsJson(r->metrics) + "}\n");
    if (!written.ok()) r->Fail(written.ToString());
  }

 private:
  const std::string dir_;
  std::vector<std::string> files_;
  int64_t dropped_ = 0;
};

/// Frame rate of 1 KiB frames and throughput of 1 MiB frames through the
/// loopback TCP transport, each the median of a few probes.
void AddSocketProbes(RunResult* r) {
  std::vector<double> small_us;
  std::vector<double> bulk_gbps;
  for (int i = 0; i < kSocketProbeRepeats; ++i) {
    SocketBandwidthOptions small;
    small.payload_floats = 256;
    small.frames = 4000;
    small.warmup_frames = 200;
    {
      TraceSpan span("e2e.probe.socket_small", "harness");
      StatusOr<SocketBandwidthResult> measured = MeasureSocketBandwidth(small);
      if (!measured.ok()) return r->Fail("socket probe: " + measured.status().ToString());
      small_us.push_back(measured->seconds / small.frames * 1e6);
    }
    TraceSpan span("e2e.probe.socket_bulk", "harness");
    StatusOr<SocketBandwidthResult> measured = MeasureSocketBandwidth({});
    if (!measured.ok()) return r->Fail("socket probe: " + measured.status().ToString());
    bulk_gbps.push_back(measured->payload_gbps);
  }
  r->Add("socket.small_frame_us", Quantile(small_us, 0.5), "us");
  r->Add("socket.bulk_gbps", Quantile(bulk_gbps, 0.5), "Gb/s");
}

/// Plain single-node SGD throughput of `net` on batches of `batch`: the
/// baseline of scaling.speedup_vs_1. Adds nn.single_samples_per_s and
/// returns it.
double AddSingleNodeProbe(Network& net, const SyntheticDataset& dataset, const SgdConfig& sgd,
                          int batch, double seconds, RunResult* r) {
  SgdOptimizer optimizer(sgd);
  TrainSingleNode(net, dataset, optimizer, kWarmupIters, batch);
  int64_t iters = 0;
  TraceSpan span("e2e.probe.single_node", "harness");
  const Stopwatch watch;
  while (iters == 0 || watch.ElapsedSeconds() < seconds) {
    TrainSingleNode(net, dataset, optimizer, 1, batch, kWarmupIters + iters);
    ++iters;
  }
  const double samples_per_s =
      static_cast<double>(iters * batch) / watch.ElapsedSeconds();
  r->Add("nn.single_samples_per_s", samples_per_s, "samples/s");
  return samples_per_s;
}

// ------------------------------------------------------------ in-process --

struct TrainerWorkload {
  DatasetConfig data;
  std::function<std::unique_ptr<Network>(Rng&)> build;
  int batch_per_worker = 0;
  SgdConfig sgd;
  TrainerPlanMode plan_mode = TrainerPlanMode::kPaper;
};

/// The paper's Fig 11 network at full 32x32 resolution.
TrainerWorkload CifarWfbp() {
  TrainerWorkload w;
  w.data.num_classes = 10;
  w.data.channels = 3;
  w.data.height = 32;
  w.data.width = 32;
  w.data.train_size = 2048;
  w.data.noise_stddev = 0.5f;
  w.build = [](Rng& rng) { return BuildCifarQuick(3, 32, 10, rng); };
  w.batch_per_worker = 16;
  w.sgd = {.learning_rate = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  return w;
}

/// A VGG19-22K stand-in: three conv3x3 blocks, then three FC layers that
/// hold 97% of the 3.77 M parameters, ending in 2048 classes.
std::unique_ptr<Network> BuildVgg22kStandIn(Rng& rng) {
  auto net = std::make_unique<Network>();
  int64_t in_c = 3;
  const int64_t widths[] = {32, 64, 128};
  for (int b = 0; b < 3; ++b) {
    const std::string id = std::to_string(b + 1);
    net->Add(std::make_unique<Conv2dLayer>("conv" + id, in_c, widths[b], 3, 1, 1, rng));
    net->Add(std::make_unique<ReluLayer>("relu" + id));
    net->Add(std::make_unique<MaxPool2Layer>("pool" + id));
    in_c = widths[b];
  }
  net->Add(std::make_unique<FullyConnectedLayer>("fc6", 1024, 128 * 2 * 2, rng));
  net->Add(std::make_unique<ReluLayer>("relu6"));
  net->Add(std::make_unique<FullyConnectedLayer>("fc7", 1024, 1024, rng));
  net->Add(std::make_unique<ReluLayer>("relu7"));
  net->Add(std::make_unique<FullyConnectedLayer>("fc8", 2048, 1024, rng));
  return net;
}

TrainerWorkload Vgg22k(TrainerPlanMode plan_mode) {
  TrainerWorkload w;
  w.data.num_classes = 2048;
  w.data.channels = 3;
  w.data.height = 16;
  w.data.width = 16;
  w.data.train_size = 4096;
  w.data.noise_stddev = 0.5f;
  w.build = BuildVgg22kStandIn;
  w.batch_per_worker = 8;
  w.sgd = {.learning_rate = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  w.plan_mode = plan_mode;
  return w;
}

/// Per-iteration wall times and mean losses of consecutive iterations.
struct Window {
  std::vector<double> iter_ms;
  std::vector<double> losses;
  double seconds = 0.0;

  int iterations() const { return static_cast<int>(iter_ms.size()); }
  void Append(const Window& other) {
    iter_ms.insert(iter_ms.end(), other.iter_ms.begin(), other.iter_ms.end());
    losses.insert(losses.end(), other.losses.begin(), other.losses.end());
    seconds += other.seconds;
  }
};

/// Trains one Train(dataset, 1) call at a time until at least `min_iters`
/// iterations ran and `seconds` elapsed.
Window TrainWindow(PoseidonTrainer& trainer, const SyntheticDataset& dataset, double seconds,
                   int min_iters) {
  Window window;
  const Stopwatch total;
  while (window.iterations() < min_iters || total.ElapsedSeconds() < seconds) {
    TraceSpan span("e2e.train", "harness");
    const Stopwatch watch;
    const std::vector<IterationStats> stats = trainer.Train(dataset, 1);
    window.iter_ms.push_back(watch.ElapsedMillis());
    window.losses.push_back(stats[0].mean_loss);
  }
  window.seconds = total.ElapsedSeconds();
  return window;
}

bool SameParams(Network& a, Network& b) {
  const auto pa = a.LayerParams();
  const auto pb = b.LayerParams();
  if (pa.size() != pb.size()) return false;
  for (size_t l = 0; l < pa.size(); ++l) {
    if (pa[l].size() != pb[l].size()) return false;
    for (size_t i = 0; i < pa[l].size(); ++i) {
      const Tensor& x = *pa[l][i].value;
      const Tensor& y = *pb[l][i].value;
      if (x.size() != y.size() ||
          std::memcmp(x.data(), y.data(), static_cast<size_t>(x.size()) * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

void CheckFinite(const std::vector<double>& losses, RunResult* r) {
  for (double loss : losses) {
    if (!std::isfinite(loss)) return r->Fail("non-finite training loss");
  }
}

/// Every parameter tensor that starts nonzero moved at least kMinLayerMove
/// of its initial norm away from `initial`. The top layers alone can pull
/// the loss to ln(classes), so a layer whose updates stopped arriving shows
/// here, not in the loss.
void CheckLayersMoved(Network& initial, Network& trained, RunResult* r) {
  const auto before = initial.LayerParams();
  const auto after = trained.LayerParams();
  for (size_t l = 0; l < before.size(); ++l) {
    for (size_t i = 0; i < before[l].size(); ++i) {
      const Tensor& x = *before[l][i].value;
      const Tensor& y = *after[l][i].value;
      double moved = 0.0;
      double norm = 0.0;
      for (int64_t k = 0; k < x.size(); ++k) {
        const double delta = static_cast<double>(y.data()[k]) - x.data()[k];
        moved += delta * delta;
        norm += static_cast<double>(x.data()[k]) * x.data()[k];
      }
      if (norm > 0.0 && std::sqrt(moved / norm) < kMinLayerMove) {
        r->Fail("parameter " + before[l][i].name + " of layer " +
                initial.layer(static_cast<int>(l)).name() + " did not train");
      }
    }
  }
}

/// BSP replica identity, every layer trained, exactly-once shard applies, and
/// no rejected pushes or dropped replies. Call between Train() windows: the
/// shards are idle then, and every counter they bumped happened before the
/// replies the workers waited for.
void CheckTrainer(PoseidonTrainer& trainer, const NetworkFactory& factory, RunResult* r) {
  for (int w = 1; w < kWorkers; ++w) {
    if (!SameParams(trainer.worker_net(0), trainer.worker_net(w))) {
      r->Fail("BSP replicas 0 and " + std::to_string(w) + " differ");
    }
  }
  CheckLayersMoved(*factory(), trainer.worker_net(0), r);
  int64_t applies = 0;
  int64_t expected = 0;
  for (int s = 0; s < kServers; ++s) {
    const KvServer& server = trainer.server(s);
    applies += server.applies();
    expected += server.owned_layers() * trainer.next_iter();
    if (server.rejected_pushes() != 0) r->Fail("server rejected pushes");
    if (server.replies_dropped() != 0) r->Fail("server dropped replies");
  }
  if (applies != expected) {
    r->Fail("exactly-once: " + std::to_string(applies) + " applies, expected " +
            std::to_string(expected));
  }
}

int64_t PushesProcessed(const PoseidonTrainer& trainer) {
  int64_t pushes = 0;
  for (int s = 0; s < kServers; ++s) pushes += trainer.server(s).pushes_processed();
  return pushes;
}

int64_t RejectedPushes(const PoseidonTrainer& trainer) {
  int64_t rejected = 0;
  for (int s = 0; s < kServers; ++s) rejected += trainer.server(s).rejected_pushes();
  return rejected;
}

/// Bus and shard counters around a window of `iterations`, read through the
/// trainer's public counters: bus.{bytes,msgs,entries}_per_iter (all nodes),
/// kv.pushes_per_iter, kv.rejected_pushes, and planner.bytes_residual (the
/// relative error of the plan's predicted wire + framing bytes against the
/// busiest node's measured bytes).
class CounterWindow {
 public:
  explicit CounterWindow(PoseidonTrainer& trainer)
      : trainer_(trainer),
        bytes_(trainer.bus().TxBytes()),
        msgs_(trainer.bus().TxMessages()),
        entries_(trainer.bus().TxEntries()),
        pushes_(PushesProcessed(trainer)) {}

  void Add(int iterations, RunResult* r) const {
    const MessageBus& bus = trainer_.bus();
    const double iters = static_cast<double>(iterations);
    double bytes = 0.0;
    double busiest = 0.0;
    for (int n = 0; n < bus.num_nodes(); ++n) {
      const double node = static_cast<double>(bus.TxBytes(n) - bytes_[static_cast<size_t>(n)]);
      bytes += node;
      busiest = std::max(busiest, node);
    }
    r->Add("bus.bytes_per_iter", bytes / iters, "B");
    r->Add("bus.msgs_per_iter", Delta(bus.TxMessages(), msgs_) / iters, "count");
    r->Add("bus.entries_per_iter", Delta(bus.TxEntries(), entries_) / iters, "count");
    r->Add("kv.pushes_per_iter",
           static_cast<double>(PushesProcessed(trainer_) - pushes_) / iters, "count");
    r->Add("kv.rejected_pushes", static_cast<double>(RejectedPushes(trainer_)), "count");
    const CommPlan& plan = *trainer_.plan();
    const double predicted = plan.predicted_wire_bytes + plan.predicted_framing_bytes;
    r->Add("planner.bytes_residual", std::abs(busiest / iters / predicted - 1.0), "ratio");
  }

 private:
  static double Delta(const std::vector<int64_t>& now, const std::vector<int64_t>& before) {
    int64_t sum = 0;
    for (size_t n = 0; n < now.size(); ++n) sum += now[n] - before[n];
    return static_cast<double>(sum);
  }

  PoseidonTrainer& trainer_;
  const std::vector<int64_t> bytes_;
  const std::vector<int64_t> msgs_;
  const std::vector<int64_t> entries_;
  const int64_t pushes_;
};

void AddDeliveryLatency(const MessageBus& bus, RunResult* r) {
  Histogram::Snapshot merged;
  for (const LinkStat& link : bus.SnapshotLinkStats().links) {
    const Histogram::Snapshot& h = link.delivery_latency_ns;
    if (merged.counts.empty()) {
      merged = h;
      continue;
    }
    for (size_t b = 0; b < h.counts.size(); ++b) merged.counts[b] += h.counts[b];
    merged.total_count += h.total_count;
    merged.sum += h.sum;
    merged.max = std::max(merged.max, h.max);
  }
  r->Add("bus.delivery_us_p50", HistogramQuantile(merged, 0.50) * 1e-3, "us");
  r->Add("bus.delivery_us_p99", HistogramQuantile(merged, 0.99) * 1e-3, "us");
}

void RunTrainerWorkload(const char* name, const TrainerWorkload& w, const Args& args,
                        RunResult* r) {
  DatasetConfig data = w.data;
  data.seed = args.seed;
  const SyntheticDataset dataset(data);
  const uint64_t init_seed = args.seed + kInitSeedOffset;
  const auto build = w.build;
  const NetworkFactory factory = [build, init_seed] {
    Rng rng(init_seed);
    return build(rng);
  };
  TrainerOptions options;
  options.num_workers = kWorkers;
  options.num_servers = kServers;
  options.shards_per_server = 1;
  options.syncer_threads = 1;
  options.batch_per_worker = w.batch_per_worker;
  options.sgd = w.sgd;
  options.plan_mode = w.plan_mode;
  options.model_name = name;

  const bool traced = !args.trace_out.empty();
  std::vector<double> setup_s;
  std::unique_ptr<PoseidonTrainer> trainer;
  while (setup_s.empty() || (!traced && MoreSetups(setup_s))) {
    trainer.reset();
    const Stopwatch watch;
    trainer = std::make_unique<PoseidonTrainer>(factory, options);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  std::fprintf(stderr, "%s plan:\n%s", name, trainer->plan()->Summary().c_str());
  for (int n = 0; n < trainer->bus().num_nodes(); ++n) {
    trainer->bus().SetEgressLimit(n, kEgressBytesPerSec);
  }
  const double samples_per_iter = static_cast<double>(kWorkers * w.batch_per_worker);
  const Window warmup = TrainWindow(*trainer, dataset, 0.0, kWarmupIters);
  CheckFinite(warmup.losses, r);

  if (!traced) {
    const int loss_step = args.smoke ? kLossWindow : kLossStep;
    const Window timed =
        TrainWindow(*trainer, dataset, args.seconds, args.smoke ? loss_step : kMinTimedIters);
    CheckFinite(timed.losses, r);
    CheckTrainer(*trainer, factory, r);
    r->attempted = static_cast<int64_t>(timed.iterations()) * kWorkers;
    r->Add("samples_per_s", timed.iterations() * samples_per_iter / timed.seconds, "samples/s");
    r->Add("iter_ms_p50", Quantile(timed.iter_ms, 0.50), "ms");
    r->Add("iter_ms_p90", Quantile(timed.iter_ms, 0.90), "ms");
    r->Add("setup_s", Quantile(setup_s, 0.5), "s");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    const auto last = timed.losses.begin() + loss_step;
    r->Add("loss_final", Mean(std::vector<double>(last - kLossWindow, last)), "nats");
    return;
  }

  const Window reference = TrainWindow(*trainer, dataset, kReferenceShare * args.seconds, 1);
  CheckFinite(reference.losses, r);
  const double reference_sps = reference.iterations() * samples_per_iter / reference.seconds;
  trainer->bus().EnableLinkStats();
  const CounterWindow counters(*trainer);
  TraceChunks chunks(args.trace_out, kTrainerRingEvents);
  Window traced_window;
  const Stopwatch watch;
  while (traced_window.iterations() == 0 ||
         watch.ElapsedSeconds() < kTracedShare * args.seconds) {
    traced_window.Append(TrainWindow(*trainer, dataset, 0.0, kTraceChunkIters));
    chunks.Flush(r);
  }
  CheckFinite(traced_window.losses, r);
  CheckTrainer(*trainer, factory, r);
  r->attempted = static_cast<int64_t>(traced_window.iterations()) * kWorkers;
  counters.Add(traced_window.iterations(), r);
  AddDeliveryLatency(trainer->bus(), r);
  const double traced_sps = traced_window.iterations() * samples_per_iter / traced_window.seconds;
  r->Add("trace.overhead_frac", 1.0 - traced_sps / reference_sps, "ratio");

  auto single = factory();
  const double single_sps = AddSingleNodeProbe(*single, dataset, w.sgd, w.batch_per_worker,
                                               kSingleNodeShare * args.seconds, r);
  r->Add("scaling.speedup_vs_1", reference_sps / single_sps, "ratio");
  AddSocketProbes(r);
  chunks.Finish(r->attempted, r);
}

// ----------------------------------------------------------- mlp_socket --

bool PortFree(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool bound = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return bound;
}

/// The next free port in the rotation, or -1 when the whole span is taken.
/// Each process starts at a pid-dependent offset, so back-to-back runs do
/// not reuse ports that still have TIME_WAIT entries.
int NextListenPort() {
  static int next = static_cast<int>(::getpid() % kPortSpan);
  for (int tries = 0; tries < kPortSpan; ++tries) {
    const int port = kPortBase + next;
    next = (next + 1) % kPortSpan;
    if (PortFree(port)) return port;
  }
  return -1;
}

/// The cluster's trainer options: the canonical small-cluster settings with
/// 2 workers and 2 colocated servers x 1 shard, one syncer thread each. The
/// canonical learning rate of 0.05 diverges on the 8-hidden-layer MLP.
TrainerOptions ClusterTrainerOptions() {
  TrainerOptions options = workloads::SmallTrainerOptions(kWorkers, kServers, /*shards=*/1);
  options.server_node_base = 0;
  options.syncer_threads = 1;
  options.sgd.learning_rate = 0.01f;
  return options;
}

/// One bring-up, training run and teardown of the socket cluster, checked:
/// every member returns OK, the workers' final checkpoints are bitwise equal
/// (BSP) and every loss is finite. Fills `mean_losses` (per iteration, mean
/// over workers) and returns the wall seconds, or a negative value on
/// failure.
double RunCluster(int iterations, const std::string& dir, std::vector<double>* mean_losses,
                  RunResult* r) {
  TraceSpan span("e2e.cluster_run", "harness", iterations);
  std::vector<SocketEndpoint> endpoints(kClusterProcesses);
  for (SocketEndpoint& endpoint : endpoints) {
    endpoint.port = NextListenPort();
    if (endpoint.port < 0) {
      r->Fail("no free listen port");
      return -1.0;
    }
  }
  std::vector<std::unique_ptr<ClusterNode>> members;
  for (int p = 0; p < kClusterProcesses; ++p) {
    ClusterNodeConfig config;
    config.trainer = ClusterTrainerOptions();
    config.hidden_layers = kMlpHiddenLayers;
    config.iterations = iterations;
    config.process = p;
    config.out_dir = dir;
    config.rendezvous_timeout_ms = kClusterTimeoutMs;
    config.shutdown_timeout_ms = kClusterTimeoutMs;
    config.transport.self = p;
    config.transport.processes = endpoints;
    config.transport.node_owner = {1, 2};  // node n (worker n + server n) -> process n + 1
    members.push_back(std::make_unique<ClusterNode>(std::move(config)));
  }
  const Stopwatch watch;
  std::mutex mutex;
  std::condition_variable finished_cv;
  size_t finished = 0;
  std::vector<Status> results(members.size());
  std::vector<std::thread> threads;
  for (size_t p = 0; p < members.size(); ++p) {
    threads.emplace_back([&, p] {
      Status status = members[p]->Run();
      std::lock_guard<std::mutex> lock(mutex);
      results[p] = std::move(status);
      ++finished;
      finished_cv.notify_all();
    });
  }
  {
    // Rendezvous and shutdown have deadlines, but a worker waiting on a lost
    // reply has none; the benchmark must still end.
    std::unique_lock<std::mutex> lock(mutex);
    if (!finished_cv.wait_for(lock, std::chrono::milliseconds(3 * kClusterTimeoutMs),
                              [&] { return finished == members.size(); })) {
      std::fprintf(stderr, "e2e_bench: cluster run still running after %d s; aborting\n",
                   3 * kClusterTimeoutMs / 1000);
      std::_Exit(1);
    }
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = watch.ElapsedSeconds();
  for (size_t p = 0; p < results.size(); ++p) {
    if (!results[p].ok()) {
      r->Fail("cluster member " + std::to_string(p) + ": " + results[p].ToString());
      return -1.0;
    }
  }

  mean_losses->assign(static_cast<size_t>(iterations), 0.0);
  std::string first_ckpt;
  for (int w = 0; w < kWorkers; ++w) {
    const std::string base = dir + "/worker_" + std::to_string(w);
    std::string ckpt;
    std::ifstream losses(base + "_losses.txt");
    if (!ReadText(base + ".ckpt", &ckpt) || !losses) {
      r->Fail("missing cluster results in " + dir);
      return -1.0;
    }
    if (w == 0) first_ckpt = ckpt;
    if (ckpt != first_ckpt) r->Fail("BSP replicas 0 and " + std::to_string(w) + " differ");
    std::string line;
    for (int i = 0; i < iterations; ++i) {
      long long iter = -1;
      std::string loss;
      if (!std::getline(losses, line) || !(std::istringstream(line) >> iter >> loss) ||
          iter != i) {
        r->Fail("malformed loss file " + base + "_losses.txt");
        return -1.0;
      }
      (*mean_losses)[static_cast<size_t>(i)] += std::strtod(loss.c_str(), nullptr) / kWorkers;
    }
  }
  CheckFinite(*mean_losses, r);
  return seconds;
}

/// Cluster runs of `iterations` each until at least `min_runs` ran and
/// `seconds` elapsed. Each run is one iter_ms sample: its wall time,
/// bring-up and teardown included, over its iterations. Every run must
/// repeat the first run's loss trajectory bit for bit.
Window ClusterWindow(int iterations, double seconds, int min_runs, const std::string& dir,
                     std::vector<double>* reference_losses, TraceChunks* chunks, RunResult* r) {
  Window window;
  while (window.iterations() < min_runs || window.seconds < seconds) {
    std::vector<double> losses;
    const double run_s = RunCluster(iterations, dir, &losses, r);
    if (run_s < 0.0) break;
    if (chunks != nullptr) chunks->Flush(r);
    if (reference_losses->empty()) *reference_losses = losses;
    if (losses != *reference_losses) r->Fail("cluster runs diverged from the first run");
    window.iter_ms.push_back(run_s * 1e3 / iterations);
    window.seconds += run_s;
  }
  return window;
}

void RunClusterWorkload(const Args& args, RunResult* r) {
  const std::string dir = args.work_dir + "/cluster";
  std::filesystem::create_directories(dir);
  const bool traced = !args.trace_out.empty();
  const int run_iters = args.smoke ? 2 * kLossWindow : kClusterRunIters;
  const int loss_step = args.smoke ? kLossWindow : kLossStep;
  const int batch = ClusterTrainerOptions().batch_per_worker;
  const double samples_per_iter = static_cast<double>(kWorkers * batch);

  std::vector<double> setup_s;
  std::vector<double> losses;
  while (r->failures.empty() && (setup_s.empty() || (!traced && MoreSetups(setup_s)))) {
    setup_s.push_back(RunCluster(1, dir, &losses, r));
  }
  RunCluster(kWarmupIters, dir, &losses, r);
  if (!r->failures.empty()) return;

  std::vector<double> trajectory;  // every run of run_iters repeats it
  if (!traced) {
    const Window timed = ClusterWindow(run_iters, args.seconds, args.smoke ? 1 : kMinTimedIters,
                                       dir, &trajectory, nullptr, r);
    if (!r->failures.empty()) return;
    // Cluster runs restart from the initial replica, so samples count one
    // run's iterations per run.
    const double iterations = static_cast<double>(timed.iter_ms.size()) * run_iters;
    r->attempted = static_cast<int64_t>(iterations) * kWorkers;
    r->Add("samples_per_s", iterations * samples_per_iter / timed.seconds, "samples/s");
    r->Add("iter_ms_p50", Quantile(timed.iter_ms, 0.50), "ms");
    r->Add("iter_ms_p90", Quantile(timed.iter_ms, 0.90), "ms");
    r->Add("setup_s", Quantile(setup_s, 0.5), "s");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    const auto last = trajectory.begin() + loss_step;
    r->Add("loss_final", Mean(std::vector<double>(last - kLossWindow, last)), "nats");
    return;
  }

  const Window reference =
      ClusterWindow(run_iters, kReferenceShare * args.seconds, 1, dir, &trajectory, nullptr, r);
  if (!r->failures.empty()) return;
  const double reference_iters = static_cast<double>(reference.iter_ms.size()) * run_iters;
  const double reference_sps = reference_iters * samples_per_iter / reference.seconds;
  const double iter_ms = reference.seconds * 1e3 / reference_iters;

  // ClusterNode keeps its bus and shards private: their counters, and the
  // socket delivery latency, are not observable from outside and read 0.
  const std::pair<const char*, const char*> unobservable[] = {
      {"bus.bytes_per_iter", "B"},      {"bus.msgs_per_iter", "count"},
      {"bus.entries_per_iter", "count"}, {"bus.delivery_us_p50", "us"},
      {"bus.delivery_us_p99", "us"},     {"kv.pushes_per_iter", "count"},
      {"kv.rejected_pushes", "count"},   {"planner.bytes_residual", "ratio"}};
  for (const auto& [name, unit] : unobservable) r->Add(name, 0.0, unit);

  TraceChunks chunks(args.trace_out, kClusterRingEvents);
  const Window traced_window = ClusterWindow(run_iters, kClusterTracedShare * args.seconds, 1,
                                             dir, &trajectory, &chunks, r);
  const double traced_iters = static_cast<double>(traced_window.iter_ms.size()) * run_iters;
  r->attempted = static_cast<int64_t>(traced_iters) * kWorkers;
  r->Add("trace.overhead_frac",
         1.0 - traced_iters * samples_per_iter / traced_window.seconds / reference_sps, "ratio");

  // ClusterNode's worker loop records no forward/backward/wait_all spans, so
  // compute is probed on a replica with the cluster's batch, and the exposed
  // wait is the rest of the reference window's iteration time.
  const SyntheticDataset tiny = workloads::TinyDataset();
  auto net = workloads::TinyMlpFactory(kMlpHiddenLayers)();
  const Batch probe_batch = tiny.TrainBatch(0, batch, 0, kWorkers);
  WallTimer forward;
  WallTimer backward;
  for (int i = 0; i < kComputeProbeReps; ++i) {
    {
      TraceSpan span("e2e.probe.forward", "harness");
      forward.Resume();
      net->Forward(probe_batch.images, probe_batch.labels);
      forward.Pause();
    }
    TraceSpan span("e2e.probe.backward", "harness");
    backward.Resume();
    net->Backward();
    backward.Pause();
  }
  const double forward_ms = forward.TotalSeconds() * 1e3 / kComputeProbeReps;
  const double backward_ms = backward.TotalSeconds() * 1e3 / kComputeProbeReps;
  const double wait_ms = std::max(0.0, iter_ms - forward_ms - backward_ms);
  r->Add("nn.forward_ms", forward_ms, "ms");
  r->Add("nn.backward_ms", backward_ms, "ms");
  r->Add("poseidon.wait_all_ms", wait_ms, "ms");
  r->Add("poseidon.exposed_frac", wait_ms / iter_ms, "ratio");

  auto single = workloads::TinyMlpFactory(kMlpHiddenLayers)();
  const double single_sps = AddSingleNodeProbe(*single, tiny, ClusterTrainerOptions().sgd, batch,
                                               kSingleNodeShare * args.seconds, r);
  r->Add("scaling.speedup_vs_1", reference_sps / single_sps, "ratio");
  AddSocketProbes(r);
  chunks.Finish(r->attempted, r);
}

// ------------------------------------------------------------------ main --

void Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload=cifar_wfbp|vgg22k_hybcomm|vgg22k_auto|mlp_socket\n"
               "                 --work-dir=DIR [--seed=N] [--seconds=S] [--trace-out=DIR]\n"
               "                 [--smoke]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.trace_out.empty()) std::filesystem::create_directories(args.trace_out);
  RunResult result;
  if (args.workload == "cifar_wfbp") {
    RunTrainerWorkload("cifar_wfbp", CifarWfbp(), args, &result);
  } else if (args.workload == "vgg22k_hybcomm") {
    RunTrainerWorkload("vgg22k_hybcomm", Vgg22k(TrainerPlanMode::kPaper), args, &result);
  } else if (args.workload == "vgg22k_auto") {
    RunTrainerWorkload("vgg22k_auto", Vgg22k(TrainerPlanMode::kAuto), args, &result);
  } else if (args.workload == "mlp_socket") {
    RunClusterWorkload(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    Usage();
    return 2;
  }
  if (args.trace_out.empty() || !result.failures.empty()) {
    std::printf("{%s, \"metrics\": %s}\n", ResultFields(result).c_str(),
                MetricsJson(result.metrics).c_str());
  }
  return result.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) { return poseidon::Main(argc, argv); }
