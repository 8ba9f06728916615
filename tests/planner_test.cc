// CommPlanner test suite: the joint search against a brute-force oracle, the
// request signature and search determinism, the JSON round trip behind
// --plan=fixed:<path>, the committed golden plan dump, the windowed
// link-stats delta snapshots, and the bandwidth-feedback Replanner.
//
// The oracle is the load-bearing test: the planner prunes the search (the
// SFB/collective tail is shard-independent, so it is evaluated once per
// layer), and the oracle re-enumerates every (scheme, codec, shards)
// candidate the slow way from the public cost rows. Equal answers prove the
// pruning is exhaustive-equivalent, not just fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"
#include "src/planner/replanner.h"
#include "src/transport/bus.h"

namespace poseidon {
namespace {

// ----------------------------------------------------------------- oracle --

struct OracleChoice {
  PlannedScheme scheme = PlannedScheme::kNone;
  GradCompression codec = GradCompression::kNone;
  double bytes = 0.0;
};

// Per-worker payload bytes of one candidate, straight from the public cost
// rows (the same rows the planner prices, reached without any of its menu or
// pruning machinery).
double OracleBytes(PlannedScheme scheme, GradCompression codec, const LayerSpec& layer,
                   const PlanRequest& r, int shards) {
  CommCostQuery q;
  q.m = layer.type == LayerType::kFC ? layer.fc_m : layer.params;
  q.n = layer.type == LayerType::kFC ? layer.fc_n : 1;
  q.batch_k = r.batch_per_worker;
  q.num_workers = r.num_workers;
  q.num_servers = r.num_servers;
  q.num_shards = shards;
  CommScheme comm = CommScheme::kPS;
  switch (scheme) {
    case PlannedScheme::kPS:
      comm = CommScheme::kPS;
      break;
    case PlannedScheme::kSFB:
      comm = CommScheme::kSFB;
      break;
    case PlannedScheme::kRing:
      comm = CommScheme::kRing;
      break;
    case PlannedScheme::kTree:
      comm = CommScheme::kTree;
      break;
    default:
      ADD_FAILURE() << "oracle asked for scheme " << static_cast<int>(scheme);
      break;
  }
  return SchemeWireBytes(comm, codec, q, r.topk_density);
}

// Exhaustive per-layer argmin on the byte basis at one shard count, in the
// planner's canonical candidate order (PS raw, PS fp16, PS int8, PS topk,
// SFB, ring, tree) with strict-improvement folding, so ties land on the same
// candidate the planner prefers.
OracleChoice OracleBestForLayer(const LayerSpec& layer, const PlanRequest& r, int shards) {
  OracleChoice best;
  if (layer.params <= 0) {
    return best;  // stateless
  }
  bool have = false;
  auto fold = [&](PlannedScheme scheme, GradCompression codec) {
    const double bytes = OracleBytes(scheme, codec, layer, r, shards);
    if (!have || bytes < best.bytes) {
      best = {scheme, codec, bytes};
      have = true;
    }
  };
  fold(PlannedScheme::kPS, GradCompression::kNone);
  if (r.num_workers > 1) {
    if (layer.params >= r.compression_min_floats) {
      fold(PlannedScheme::kPS, GradCompression::kFp16);
      fold(PlannedScheme::kPS, GradCompression::kInt8);
      fold(PlannedScheme::kPS, GradCompression::kTopK);
    }
    if (layer.type == LayerType::kFC) {
      fold(PlannedScheme::kSFB, GradCompression::kNone);
    }
    fold(PlannedScheme::kRing, GradCompression::kNone);
    fold(PlannedScheme::kTree, GradCompression::kNone);
  }
  return best;
}

TEST(PlannerOracleTest, JointByteBasisMatchesBruteForce) {
  for (const char* name : {"googlenet", "vgg19", "vgg19-22k", "resnet-152"}) {
    const ModelSpec model = ModelByName(name).value();
    for (int p : {1, 2, 8, 16}) {
      const PlanRequest request =
          JointAutoRequest(model, p, /*nic_gbps=*/0.0, /*max_shards=*/8);
      const CommPlan plan = PlanComm(request);

      // Brute force: total payload at every shard count, ties to fewer shards.
      int oracle_shards = 1;
      double oracle_total = 0.0;
      bool have = false;
      for (int s = 1; s <= request.max_shards; ++s) {
        double total = 0.0;
        for (const LayerSpec& layer : model.layers) {
          total += OracleBestForLayer(layer, request, s).bytes;
        }
        if (!have || total < oracle_total) {
          oracle_total = total;
          oracle_shards = s;
          have = true;
        }
      }
      SCOPED_TRACE(std::string(name) + " @ " + std::to_string(p) + " nodes");
      EXPECT_EQ(plan.ps_shards, oracle_shards);
      // Both sides price candidates through the same closed forms, so the
      // totals must agree bitwise, not just approximately.
      EXPECT_EQ(plan.predicted_wire_bytes, oracle_total);
      ASSERT_EQ(plan.layers.size(), model.layers.size());
      for (size_t l = 0; l < model.layers.size(); ++l) {
        const OracleChoice oracle =
            OracleBestForLayer(model.layers[l], request, oracle_shards);
        EXPECT_EQ(plan.layers[l].scheme, oracle.scheme) << model.layers[l].name;
        EXPECT_EQ(plan.layers[l].compression, oracle.codec) << model.layers[l].name;
        EXPECT_EQ(plan.layers[l].predicted_bytes, oracle.bytes) << model.layers[l].name;
      }
    }
  }
}

TEST(PlannerOracleTest, PlannedNeverCostsMoreBytesThanPaperDefault) {
  // The acceptance gate's invariant, across the zoo: the joint search's
  // predicted payload never exceeds the hand-picked default's (the paper
  // config is in the joint search space, so worse would mean a search bug).
  for (const char* name :
       {"alexnet", "googlenet", "inception-v3", "vgg19", "vgg19-22k", "resnet-152"}) {
    const ModelSpec model = ModelByName(name).value();
    for (int p : {2, 4, 8, 16, 32}) {
      const CommPlan planned =
          PlanComm(JointAutoRequest(model, p, /*nic_gbps=*/0.0, /*max_shards=*/8));
      const CommPlan paper = PlanComm(PaperDefaultRequest(model, p));
      EXPECT_LE(planned.predicted_wire_bytes, paper.predicted_wire_bytes)
          << name << " @ " << p << " nodes";
    }
  }
}

TEST(PlannerOracleTest, TimeBasisAddsLatencyAndStalenessDecisions) {
  const ModelSpec model = ModelByName("vgg19").value();
  PlanRequest request = JointAutoRequest(model, 8, /*nic_gbps=*/10.0, /*max_shards=*/8);
  const CommPlan plan = PlanComm(request);
  EXPECT_GT(plan.predicted_time_s, 0.0);
  EXPECT_EQ(plan.planned_gbps, 10.0);
  EXPECT_EQ(plan.staleness, 0);  // SSP is opt-in via max_staleness

  request.max_staleness = 2;
  const CommPlan ssp = PlanComm(request);
  EXPECT_EQ(ssp.staleness, 2);
  EXPECT_LT(ssp.predicted_time_s, plan.predicted_time_s);
}

TEST(PlannerOracleTest, PaperModePinsTheHandPickedConfiguration) {
  const ModelSpec model = ModelByName("vgg19").value();
  const CommPlan plan = PlanComm(PaperDefaultRequest(model, 8));
  EXPECT_EQ(plan.ps_shards, 1);
  EXPECT_FALSE(plan.batch_egress);
  for (const PlanLayerChoice& choice : plan.layers) {
    EXPECT_EQ(choice.compression, GradCompression::kNone) << choice.layer;
    EXPECT_TRUE(choice.scheme == PlannedScheme::kPS ||
                choice.scheme == PlannedScheme::kSFB)
        << choice.layer << ": paper hybrid only picks PS or SFB";
  }
}

// ------------------------------------------------------------- signature --

TEST(PlanRequestTest, DistinctRequestsGetDistinctSignatures) {
  const ModelSpec model = ModelByName("vgg19").value();
  const PlanRequest base = JointAutoRequest(model, 8, 10.0, 8);

  PlanRequest other = base;
  other.nic_gbps = 20.0;
  EXPECT_NE(PlanRequestSignature(base), PlanRequestSignature(other));

  other = base;
  other.num_workers = other.num_servers = 16;
  EXPECT_NE(PlanRequestSignature(base), PlanRequestSignature(other));

  other = base;
  other.max_shards = 4;
  EXPECT_NE(PlanRequestSignature(base), PlanRequestSignature(other));
  EXPECT_NE(PlanComm(base).hash, PlanComm(other).hash)
      << "the signature feeds the plan hash";
}

TEST(PlanRequestTest, RepeatedSearchesAreDeterministic) {
  const ModelSpec model = ModelByName("resnet-152").value();
  const PlanRequest request = JointAutoRequest(model, 16, 40.0, 8);
  const std::string first = PlanComm(request).ToJson();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(PlanComm(request).ToJson(), first);
  }
}

// ------------------------------------------------------------------- json --

TEST(PlanJsonTest, RoundTripIsByteExact) {
  const ModelSpec model = ModelByName("vgg19-22k").value();
  const CommPlan plan = PlanComm(JointAutoRequest(model, 16, 10.0, 8));
  const std::string json = plan.ToJson();

  const StatusOr<CommPlan> parsed = CommPlan::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().hash, plan.hash);
  EXPECT_EQ(parsed.value().ToJson(), json);
}

TEST(PlanJsonTest, TamperedDumpIsRejected) {
  const ModelSpec model = ModelByName("googlenet").value();
  const CommPlan plan = PlanComm(PaperDefaultRequest(model, 8));
  std::string json = plan.ToJson();
  // Bump the shard count without re-hashing: the content hash must catch it.
  const size_t pos = json.find("\"ps_shards\": 1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 14, "\"ps_shards\": 2");
  EXPECT_FALSE(CommPlan::FromJson(json).ok());
}

TEST(PlanJsonTest, FileRoundTripBacksFixedPlanRuns) {
  const ModelSpec model = ModelByName("vgg19").value();
  const CommPlan plan = PlanComm(JointAutoRequest(model, 8, 0.0, 8));
  const std::string path =
      ::testing::TempDir() + "/poseidon_plan_roundtrip.json";
  ASSERT_TRUE(plan.SaveToFile(path).ok());
  const StatusOr<CommPlan> loaded = CommPlan::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().hash, plan.hash);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- golden --

// The committed plan-dump fixture: the joint plan for VGG19 on 8 nodes at
// 10 GbE must reproduce tests/golden/plan_dump.json byte for byte. A
// legitimate cost-model change regenerates it with POSEIDON_REGEN_GOLDEN=1
// (the docs CI job validates the committed file stays in sync).
TEST(PlanGoldenTest, CommittedPlanDumpIsReproduced) {
  const char* dir = std::getenv("POSEIDON_GOLDEN_DIR");
  ASSERT_NE(dir, nullptr) << "POSEIDON_GOLDEN_DIR not set (ctest sets it)";
  const std::string path = std::string(dir) + "/plan_dump.json";

  const ModelSpec model = ModelByName("vgg19").value();
  const CommPlan plan =
      PlanComm(JointAutoRequest(model, 8, /*nic_gbps=*/10.0, /*max_shards=*/8));
  const std::string json = plan.ToJson();

  if (const char* regen = std::getenv("POSEIDON_REGEN_GOLDEN");
      regen != nullptr && regen[0] == '1') {
    ASSERT_TRUE(plan.SaveToFile(path).ok());
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path
                         << " missing; run with POSEIDON_REGEN_GOLDEN=1 to create it";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json)
      << "plan dump drifted from the committed golden; if the cost model "
         "changed intentionally, regenerate with POSEIDON_REGEN_GOLDEN=1";
}

// ------------------------------------------------------- link-stats delta --

Message ChunkMessage(int src, int dst, int floats) {
  Message m;
  m.type = MessageType::kGradPush;
  m.from = Address{src, kSyncerPortBase};
  m.to = Address{dst, kServerPort};
  m.layer = 0;
  m.worker = src;
  m.iter = 0;
  m.codec = WireCodec::kRawFloat;
  Payload payload = Payload::Allocate(floats);
  for (int64_t i = 0; i < payload.size(); ++i) {
    payload.data()[i] = 1.0f;
  }
  m.chunks.push_back({0, payload.View()});
  return m;
}

TEST(LinkStatsDeltaTest, WindowsCoverOnlyNewTraffic) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  bus.EnableLinkStats();

  ASSERT_TRUE(bus.Send(ChunkMessage(0, 1, 256)).ok());
  ASSERT_TRUE(mailbox->Pop().has_value());

  ObservedLinkStats first = bus.SnapshotLinkStatsDelta();
  const LinkStat* link = first.Find(0, 1);
  ASSERT_NE(link, nullptr);
  EXPECT_GT(link->bytes, 0);
  EXPECT_EQ(link->messages, 1);

  // Nothing new moved: the next window must be empty, while the cumulative
  // snapshot still remembers everything.
  ObservedLinkStats second = bus.SnapshotLinkStatsDelta();
  EXPECT_EQ(second.Find(0, 1), nullptr);
  EXPECT_NE(bus.SnapshotLinkStats().Find(0, 1), nullptr);

  // New traffic lands in the third window, delta-sized.
  ASSERT_TRUE(bus.Send(ChunkMessage(0, 1, 256)).ok());
  ASSERT_TRUE(bus.Send(ChunkMessage(0, 1, 256)).ok());
  ASSERT_TRUE(mailbox->Pop().has_value());
  ASSERT_TRUE(mailbox->Pop().has_value());
  ObservedLinkStats third = bus.SnapshotLinkStatsDelta();
  link = third.Find(0, 1);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->messages, 2);

  bus.CloseAll();
}

// -------------------------------------------------------------- replanner --

ObservedLinkStats SyntheticWindow(double window_s, int64_t bytes_from_node0) {
  ObservedLinkStats window;
  window.window_s = window_s;
  LinkStat link;
  link.src = 0;
  link.dst = 1;
  link.bytes = bytes_from_node0;
  link.messages = 1;
  window.links.push_back(link);
  return window;
}

// bytes over 1 s whose busiest-node egress equals `gbps`.
int64_t BytesForGbps(double gbps) { return static_cast<int64_t>(gbps * 1e9 / 8.0); }

TEST(ReplannerTest, StaysPutInsideHysteresisAndReplansOutside) {
  const ModelSpec model = ModelByName("vgg19").value();
  ReplanOptions options;
  options.hysteresis = 0.3;
  Replanner replanner(JointAutoRequest(model, 8, /*nic_gbps=*/10.0, 8), options);

  // 20% off: inside hysteresis, no replan.
  ReplanDecision decision = replanner.Observe(SyntheticWindow(1.0, BytesForGbps(12.0)));
  EXPECT_FALSE(decision.replan);
  EXPECT_NEAR(decision.observed_gbps, 12.0, 1e-9);
  EXPECT_EQ(replanner.reference_gbps(), 10.0);

  // 4x slower: replan at the observed bandwidth.
  decision = replanner.Observe(SyntheticWindow(1.0, BytesForGbps(2.5)));
  ASSERT_TRUE(decision.replan);
  ASSERT_NE(decision.plan, nullptr);
  EXPECT_NEAR(decision.plan->planned_gbps, 2.5, 1e-9);
  EXPECT_NEAR(replanner.reference_gbps(), 2.5, 1e-9);

  // The same bandwidth again: the reference moved, so no further replan.
  decision = replanner.Observe(SyntheticWindow(1.0, BytesForGbps(2.5)));
  EXPECT_FALSE(decision.replan);
}

TEST(ReplannerTest, ByteBasisPlanCalibratesOnFirstLiveWindow) {
  const ModelSpec model = ModelByName("googlenet").value();
  Replanner replanner(JointAutoRequest(model, 4, /*nic_gbps=*/0.0, 8), ReplanOptions{});
  const ReplanDecision first = replanner.Observe(SyntheticWindow(1.0, BytesForGbps(5.0)));
  EXPECT_FALSE(first.replan) << "calibration must not replan";
  EXPECT_NEAR(replanner.reference_gbps(), 5.0, 1e-9);

  const ReplanDecision second =
      replanner.Observe(SyntheticWindow(1.0, BytesForGbps(20.0)));
  EXPECT_TRUE(second.replan);
}

TEST(ReplannerTest, IdleAndDegenerateWindowsAreIgnored) {
  const ModelSpec model = ModelByName("vgg19").value();
  Replanner replanner(JointAutoRequest(model, 8, 10.0, 8), ReplanOptions{});
  EXPECT_FALSE(replanner.Observe(ObservedLinkStats{}).replan);
  // A window shorter than min_window_s is a clock tick, not evidence.
  EXPECT_FALSE(replanner.Observe(SyntheticWindow(1e-9, BytesForGbps(100.0))).replan);
  EXPECT_EQ(replanner.reference_gbps(), 10.0);
}

TEST(ReplannerTest, DeterministicGivenTheSameWindowSequence) {
  const ModelSpec model = ModelByName("vgg19").value();
  const std::vector<double> schedule = {10.0, 9.0, 3.0, 3.1, 40.0, 39.0};
  auto run = [&] {
      Replanner replanner(JointAutoRequest(model, 8, 10.0, 8), ReplanOptions{});
    std::vector<uint64_t> hashes;
    for (double gbps : schedule) {
      const ReplanDecision d = replanner.Observe(SyntheticWindow(1.0, BytesForGbps(gbps)));
      hashes.push_back(d.replan ? d.plan->hash : 0);
    }
    return hashes;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace poseidon
