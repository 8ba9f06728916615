// CommPlanner test suite: the joint search against a brute-force oracle, the
// request signature and search determinism, the JSON round trip behind
// --plan=fixed:<path>, the committed golden plan dump, and which menu
// entries the joint search ever picks.
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
  if (scheme == PlannedScheme::kNone || scheme == PlannedScheme::kOneBit) {
    ADD_FAILURE() << "oracle asked for scheme " << PlannedSchemeName(scheme);
  }
  return SchemeWireBytes(scheme, codec, q, r.topk_density);
}

// Exhaustive per-layer argmin on the byte basis at one shard count, in the
// planner's canonical candidate order (PS raw, PS int8, PS topk,
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

TEST(PlannerOracleTest, TimeBasisPredictsTimeAtThePinnedStaleness) {
  const ModelSpec model = ModelByName("vgg19").value();
  PlanRequest request = JointAutoRequest(model, 8, /*nic_gbps=*/10.0, /*max_shards=*/8);
  const CommPlan plan = PlanComm(request);
  EXPECT_GT(plan.predicted_time_s, 0.0);
  EXPECT_EQ(plan.planned_gbps, 10.0);
  EXPECT_EQ(plan.staleness, 0);
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

// fp16 is no longer a push codec: a dump written before it was pruned that
// names it on a layer is refused by name, before the hash check.
TEST(PlanJsonTest, StalePlanNamingFp16PushIsRejected) {
  const ModelSpec model = ModelByName("vgg19").value();
  std::string json = PlanComm(JointAutoRequest(model, 8, 10.0, 8)).ToJson();
  const std::string key = "\"compression\": \"";
  const size_t value = json.find(key);
  ASSERT_NE(value, std::string::npos);
  const size_t start = value + key.size();
  json.replace(start, json.find('"', start) - start, "fp16");
  const std::string path = ::testing::TempDir() + "/poseidon_plan_fp16.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << json;
  }
  const StatusOr<CommPlan> loaded = CommPlan::LoadFromFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unknown compression 'fp16'"), std::string::npos)
      << loaded.status().ToString();
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

// ------------------------------------------------------- menu coverage --

// Tree all-reduce stays on the menu because the time basis picks it: on
// vgg19-22k at 16 nodes, 10 Gb/s and one shard, the latency term makes the
// tree's three messages beat the PS and ring rows on some layer.
TEST(PlannerMenuTest, TimeBasisPicksTreeForSomeLayer) {
  const ModelSpec model = ModelByName("vgg19-22k").value();
  const CommPlan plan =
      PlanComm(JointAutoRequest(model, 16, /*nic_gbps=*/10.0, /*max_shards=*/1));
  int tree_layers = 0;
  for (const PlanLayerChoice& choice : plan.layers) {
    tree_layers += choice.scheme == PlannedScheme::kTree ? 1 : 0;
  }
  EXPECT_GT(tree_layers, 0) << plan.Summary();
}

}  // namespace
}  // namespace poseidon
