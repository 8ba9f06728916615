// Tests for the metrics registry (src/stats/metrics.h): exact concurrent
// counting, histogram bucketing, snapshot/JSON export — plus the consumers
// that migrated onto it (FaultCounters, WireCopyStats) and the per-link
// bandwidth accounting the registry's Histogram powers in the MessageBus.
#include "src/stats/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/stats/fault_counters.h"
#include "src/transport/bus.h"
#include "src/transport/payload.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -1.25);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, SamplesLandInTheRightBuckets) {
  // Buckets: <=10, <=100, <=1000, overflow.
  Histogram hist({10, 100, 1000});
  hist.Record(1);
  hist.Record(10);    // inclusive upper edge
  hist.Record(11);
  hist.Record(1000);
  hist.Record(5000);  // overflow
  const Histogram::Snapshot snap = hist.TakeSnapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.total_count, 5);
  EXPECT_EQ(snap.sum, 1 + 10 + 11 + 1000 + 5000);
  EXPECT_EQ(snap.max, 5000);
  EXPECT_DOUBLE_EQ(snap.Mean(), static_cast<double>(snap.sum) / 5.0);
}

TEST(HistogramTest, DefaultLatencyEdgesAreStrictlyIncreasing) {
  const std::vector<int64_t> edges = LatencyBucketsNs();
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges.front(), 1000);  // 1us floor
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.counter");
  Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(b->Value(), 7);
  Histogram* h1 = registry.GetHistogram("test.hist", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("test.hist", {99});  // edges of first win
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->edges().size(), 3u);
}

TEST(MetricsRegistryTest, SnapshotAndJsonCoverEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(5);
  registry.GetGauge("g.two")->Set(1.5);
  registry.GetHistogram("h.three", {10, 20})->Record(15);

  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g.two"), 1.5);
  EXPECT_EQ(snap.histograms.at("h.three").total_count, 1);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"c.one\""), std::string::npos);
  EXPECT_NE(json.find("\"g.two\""), std::string::npos);
  EXPECT_NE(json.find("\"h.three\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  registry.ResetAll();
  const MetricsRegistry::Snapshot zeroed = registry.TakeSnapshot();
  EXPECT_EQ(zeroed.counters.at("c.one"), 0);
  EXPECT_EQ(zeroed.histograms.at("h.three").total_count, 0);
}

TEST(MetricsRegistryTest, FaultCountersMirrorIntoTheGlobalRegistry) {
  Counter* global = MetricsRegistry::Default().GetCounter("fault.drops");
  const int64_t before = global->Value();
  FaultCounters counters;
  counters.AddDrop();
  counters.AddDrop();
  EXPECT_EQ(counters.Snapshot().drops, 2);
  EXPECT_EQ(global->Value(), before + 2);

  // Per-instance isolation: a second FaultCounters starts at zero even
  // though the global mirror kept counting.
  FaultCounters fresh;
  EXPECT_EQ(fresh.Snapshot().drops, 0);
}

TEST(MetricsRegistryTest, WireCopyStatsAreRegistryBacked) {
  WireCopyStats::Reset();
  WireCopyStats::Add(128);
  WireCopyStats::Add(64);
  EXPECT_EQ(WireCopyStats::Floats(), 192);
  EXPECT_EQ(WireCopyStats::Copies(), 2);
  EXPECT_EQ(MetricsRegistry::Default().GetCounter("wire.copied_floats")->Value(), 192);
  EXPECT_EQ(MetricsRegistry::Default().GetCounter("wire.copies")->Value(), 2);
  WireCopyStats::Reset();
}

// ------------------------------------------------------------- link stats ---

TEST(LinkStatsTest, DisabledByDefaultAndEmpty) {
  MessageBus bus(2);
  EXPECT_FALSE(bus.link_stats_enabled());
  EXPECT_TRUE(bus.SnapshotLinkStats().links.empty());
}

TEST(LinkStatsTest, TrainingTrafficShowsUpPerLink) {
  const SyntheticDataset dataset = testing::TinyDataset();
  TrainerOptions options = testing::SmallTrainerOptions(/*workers=*/2, /*servers=*/2);
  PoseidonTrainer trainer(testing::TinyMlpFactory(), options);
  trainer.bus().EnableLinkStats();
  ASSERT_TRUE(trainer.bus().link_stats_enabled());
  trainer.Train(dataset, 3);
  trainer.bus().FlushEgress();

  const ObservedLinkStats stats = trainer.bus().SnapshotLinkStats();
  EXPECT_GT(stats.window_s, 0.0);
  ASSERT_FALSE(stats.links.empty());

  int64_t total_bytes = 0;
  for (const LinkStat& link : stats.links) {
    EXPECT_NE(link.src, link.dst) << "local delivery must not be accounted";
    EXPECT_GT(link.bytes, 0);
    EXPECT_GT(link.messages, 0);
    total_bytes += link.bytes;
  }
  EXPECT_GT(total_bytes, 0);

  // Workers and servers are colocated (node w hosts worker w and server w),
  // so cross-node traffic is worker 0 pushing its shard halves to node 1's
  // server (and vice versa). That link must have carried traffic and its
  // delivery-latency histogram must have samples.
  const LinkStat* link = stats.Find(0, 1);
  ASSERT_NE(link, nullptr);
  EXPECT_GT(link->delivery_latency_ns.total_count, 0);
  EXPECT_GE(link->delivery_latency_ns.max, 0);
}

}  // namespace
}  // namespace poseidon
