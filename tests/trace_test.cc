// Tests for the span tracer (src/stats/trace.h): recording semantics, ring
// overflow, Chrome-trace JSON export — and the flight-recorder guarantees
// that matter at the system level: a traced sharded-SSP training run emits
// the full WFBP span schema, tracing never changes the training trajectory,
// and the live stall breakdown is directionally consistent with the
// protocol simulator's GPU busy fraction.
#include "src/stats/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/protocol_sim.h"
#include "src/cluster/system_config.h"
#include "src/models/zoo.h"
#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"
#include "tests/testing/socket_cluster.h"

namespace poseidon {
namespace {

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// The worker step's span begins, counted per recording thread and keyed by
// "<name> <arg>" (the iteration for iteration/forward/wait_all, the layer for
// backward), one map per thread, sorted.
std::vector<std::map<std::string, int>> WorkerStepSpansPerThread(const std::string& json) {
  std::map<int, std::map<std::string, int>> by_thread;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    const size_t name_at = line.find("{\"name\": \"");
    if (name_at == std::string::npos ||
        line.find("\"cat\": \"trainer\", \"ph\": \"B\"") == std::string::npos) {
      continue;
    }
    const size_t name_begin = name_at + 10;
    const std::string name = line.substr(name_begin, line.find('"', name_begin) - name_begin);
    if (name != "iteration" && name != "forward" && name != "backward" && name != "wait_all") {
      continue;
    }
    const int tid = std::stoi(line.substr(line.find("\"tid\": ") + 7));
    const std::string arg = line.substr(line.find("\"v\": ") + 5);
    ++by_thread[tid][name + " " + arg.substr(0, arg.find('}'))];
  }
  std::vector<std::map<std::string, int>> threads;
  for (auto& [tid, counts] : by_thread) {
    threads.push_back(std::move(counts));
  }
  std::sort(threads.begin(), threads.end());
  return threads;
}

// Every tracer test starts from a clean, disabled tracer. The tracer is
// process-global, so tests in this binary are written to be order-safe.
void ResetTracer() {
  Tracer::Disable();
  Tracer::Reset();
}

TEST(TracerTest, DisabledRecordsNothing) {
  ResetTracer();
  EXPECT_FALSE(Tracer::enabled());
  Tracer::Instant("noop");
  Tracer::Begin("noop");
  Tracer::End("noop");
  { TraceSpan span("noop"); }
  EXPECT_EQ(Tracer::recorded(), 0);
  EXPECT_EQ(Tracer::NowNs(), 0);
}

TEST(TracerTest, SpansExportAsChromeTraceJson) {
  ResetTracer();
  Tracer::Enable();
  {
    TraceSpan outer("outer", "test", /*arg=*/7);
    { TraceSpan inner("inner", "test"); }
    Tracer::Instant("tick", "test", /*arg=*/3);
  }
  Tracer::Complete("window", "test", /*start_ns=*/1000, /*dur_ns=*/2500);
  Tracer::Disable();

  EXPECT_EQ(Tracer::recorded(), 6);  // 2 begins + 2 ends + instant + complete
  const std::string json = Tracer::ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"test\""), std::string::npos);
  // Balanced begin/end pairs, one instant (with scope), one complete (with
  // duration), and the numeric args survive.
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""), 2);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"E\""), 2);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"i\""), 1);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"X\""), 1);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"v\": 7}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"v\": 3}"), std::string::npos);
}

TEST(TracerTest, FullRingDropsInsteadOfBlocking) {
  ResetTracer();
  Tracer::Enable(/*ring_capacity=*/16);
  for (int i = 0; i < 100; ++i) {
    Tracer::Instant("flood", "test");
  }
  Tracer::Disable();
  EXPECT_EQ(Tracer::recorded(), 16);
  EXPECT_EQ(Tracer::dropped(), 84);

  Tracer::Reset();
  EXPECT_EQ(Tracer::recorded(), 0);
  EXPECT_EQ(Tracer::dropped(), 0);
}

// ------------------------------------------------------- system-level -------

// A traced sharded-SSP training run must contain the whole WFBP lifecycle:
// per-layer backward, syncer send/receive, shard apply, and SSP stall spans.
// Whether any read actually stalls depends on thread interleaving, so the
// run is repeated (fresh trace each time) until a stall has been observed.
TEST(TraceSchemaTest, ShardedSspRunEmitsWfbpSpans) {
  const SyntheticDataset dataset = testing::TinyDataset();
  std::string json;
  for (int attempt = 0; attempt < 6 && json.empty(); ++attempt) {
    ResetTracer();
    Tracer::Enable();
    // Later attempts fall back to staleness 0 (BSP is SSP with s=0 here):
    // gating every read on the full push quorum makes a deferred read — and
    // therefore a recorded stall — all but certain.
    const int staleness = attempt < 3 ? 1 : 0;
    TrainerOptions options = testing::SmallTrainerOptions(
        /*workers=*/4, /*servers=*/2, /*shards=*/2, staleness);
    PoseidonTrainer trainer(testing::TinyMlpFactory(/*hidden_layers=*/2), options);
    trainer.Train(dataset, 8);
    trainer.bus().FlushEgress();
    Tracer::Disable();
    const std::string exported = Tracer::ExportChromeJson();
    if (exported.find("kv.ssp_stall") != std::string::npos) {
      json = exported;
    }
  }
  ASSERT_FALSE(json.empty()) << "no SSP stall observed in any attempt";

  // The WFBP lifecycle, worker side...
  EXPECT_NE(json.find("\"iteration\""), std::string::npos);
  EXPECT_NE(json.find("\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"backward\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_all\""), std::string::npos);
  // ...the syncer pipeline...
  EXPECT_NE(json.find("\"sync.move_out\""), std::string::npos);
  EXPECT_NE(json.find("\"sync.send\""), std::string::npos);
  EXPECT_NE(json.find("\"sync.receive\""), std::string::npos);
  // ...and the server side.
  EXPECT_NE(json.find("\"kv.apply\""), std::string::npos);
  EXPECT_NE(json.find("\"kv.ssp_stall\""), std::string::npos);

  // Begin/end pairs must balance: every TraceSpan that began also ended.
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  ResetTracer();
}

// A socket cluster's workers run the trainer's step: each local worker's
// thread records the same worker spans, iteration by iteration, as a worker
// thread of an in-process trainer on the same options.
TEST(TraceSchemaTest, SocketClusterWorkersRecordTheTrainersSpans) {
  const testing::SocketClusterOptions cluster;  // 2 workers, 2 servers x 2 shards
  TrainerOptions options = testing::SmallTrainerOptions(
      cluster.workers, cluster.servers, cluster.shards, cluster.staleness, cluster.policy);
  options.server_node_base = cluster.workers;

  ResetTracer();
  Tracer::Enable();
  {
    PoseidonTrainer trainer(testing::TinyMlpFactory(cluster.hidden_layers), options);
    trainer.Train(testing::TinyDataset(), cluster.iterations);
  }
  Tracer::Disable();
  const auto in_process = WorkerStepSpansPerThread(Tracer::ExportChromeJson());

  ResetTracer();
  Tracer::Enable();
  testing::RunSocketCluster(cluster);
  Tracer::Disable();
  const auto in_cluster = WorkerStepSpansPerThread(Tracer::ExportChromeJson());
  ResetTracer();

  std::map<std::string, int> per_worker;
  for (int iter = 0; iter < cluster.iterations; ++iter) {
    for (const char* name : {"iteration", "forward", "wait_all"}) {
      per_worker[std::string(name) + " " + std::to_string(iter)] = 1;
    }
  }
  const int layers = testing::TinyMlpFactory(cluster.hidden_layers)()->num_layers();
  for (int l = 0; l < layers; ++l) {
    per_worker["backward " + std::to_string(l)] = cluster.iterations;
  }
  const std::vector<std::map<std::string, int>> every_worker(
      static_cast<size_t>(cluster.workers), per_worker);
  EXPECT_EQ(in_process, every_worker);
  EXPECT_EQ(in_cluster, in_process);
}

// Tracing is observation only: a traced run must follow bitwise the same
// trajectory (losses and final parameters) as an untraced one.
TEST(TraceSchemaTest, TracingDoesNotPerturbTheTrajectory) {
  ResetTracer();
  TrainerOptions options = testing::SmallTrainerOptions();
  const testing::Trajectory untraced = testing::CaptureTrajectory(options, 6);

  Tracer::Enable();
  const testing::Trajectory traced = testing::CaptureTrajectory(options, 6);
  ResetTracer();

  EXPECT_TRUE(untraced == traced);
}

// The live trainer's compute/comm-wait/SSP-stall breakdown must be populated
// and directionally consistent with the protocol simulator's GPU busy
// fraction: both are fractions in (0, 1], and for the tiny MLP both must
// report that the GPU does real work (neither pure compute nor pure stall).
TEST(StallBreakdownTest, LiveBreakdownConsistentWithProtocolSim) {
  const SyntheticDataset dataset = testing::TinyDataset();
  TrainerOptions options = testing::SmallTrainerOptions(/*workers=*/2, /*servers=*/2);
  PoseidonTrainer trainer(testing::TinyMlpFactory(), options);
  const std::vector<IterationStats> stats = trainer.Train(dataset, 6);

  ASSERT_EQ(stats.size(), 6u);
  for (const IterationStats& s : stats) {
    EXPECT_GT(s.compute_ms, 0.0);
    EXPECT_GE(s.comm_wait_ms, 0.0);
  }

  const StallBreakdown live = trainer.stall_breakdown();
  EXPECT_GT(live.compute_s, 0.0);
  EXPECT_GE(live.comm_wait_s, 0.0);
  EXPECT_GE(live.ssp_stall_s, 0.0);
  const double live_busy = live.GpuBusyFrac();
  EXPECT_GT(live_busy, 0.0);
  EXPECT_LE(live_busy, 1.0);

  // The simulator's independent model of the same phenomenon (Fig 7): a
  // multi-node dense-PS run has a busy fraction strictly inside (0, 1).
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  const SimResult sim =
      RunProtocolSimulation(MakeAlexNet(), CaffePlusWfbp(), cluster, Engine::kCaffe);
  EXPECT_GT(sim.gpu_busy_frac, 0.0);
  EXPECT_LE(sim.gpu_busy_frac, 1.0);
}

}  // namespace
}  // namespace poseidon
