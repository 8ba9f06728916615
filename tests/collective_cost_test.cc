// Property tests for the Table-1 extension (ring/tree allreduce rows) and
// the three-way HybComm chooser:
//  * the ring row's crossover against PS and SFB is monotone in P1 and in
//    the layer size M*N (the winner can flip at most once along each axis),
//  * BestSchemeExtended never returns a scheme whose modeled cost is
//    strictly higher than any admissible alternative,
//  * the paper-mode plan hands ResNet-style conv layers to a collective
//    scheme under a high-worker-count cluster (the acceptance scenario).
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/nn/builders.h"
#include "src/poseidon/trainer.h"

namespace poseidon {
namespace {

CommCostQuery MakeQuery(int64_t m, int64_t n, int64_t k, int p) {
  CommCostQuery q;
  q.m = m;
  q.n = n;
  q.batch_k = k;
  q.num_workers = p;
  q.num_servers = p;
  return q;
}

TEST(CollectiveCostTest, RingRowFormula) {
  const CommCostQuery q = MakeQuery(4096, 4096, 32, 8);
  EXPECT_DOUBLE_EQ(RingAllreduceWorkerFloats(q), 2.0 * 4096.0 * 4096.0 * 7.0 / 8.0);
}

TEST(CollectiveCostTest, TreeRowPiecewiseClosedForm) {
  const double mn = 1000.0 * 50.0;
  for (int p = 2; p <= 33; ++p) {
    const CommCostQuery q = MakeQuery(1000, 50, 16, p);
    const double want = p == 2 ? mn : (p <= 4 ? 2.0 * mn : 3.0 * mn);
    EXPECT_DOUBLE_EQ(TreeAllreduceWorkerFloats(q), want) << "P=" << p;
  }
}

TEST(CollectiveCostTest, RingAlwaysUndercutsColocatedPs) {
  // 2MN(P-1)/P < 2MN(2P-2)/P for every P >= 2. Note this is partly a basis
  // convention (see comm_cost.h): the PS row counts sends+receives as the
  // paper publishes it, the ring row per-direction volume, so the chooser
  // credits ring with the PS round trip. The property under test is that
  // the chooser's inputs behave as documented, not a physical 2x win.
  for (int p = 2; p <= 64; p *= 2) {
    for (int64_t mn_side : {8, 256, 4096}) {
      const CommCostQuery q = MakeQuery(mn_side, mn_side, 32, p);
      EXPECT_LT(RingAllreduceWorkerFloats(q), PsColocatedFloats(q))
          << "P=" << p << " side=" << mn_side;
    }
  }
}

// Crossover monotonicity in P1: at fixed layer and batch, once ring beats
// SFB it keeps beating it for every larger worker count.
TEST(CollectiveCostTest, RingVsSfbCrossoverMonotoneInWorkers) {
  for (int64_t side : {64, 512, 4096}) {
    for (int64_t k : {1, 32, 256}) {
      bool ring_won = false;
      int flips = 0;
      for (int p = 2; p <= 512; ++p) {
        const CommCostQuery q = MakeQuery(side, side, k, p);
        const bool ring_wins = RingAllreduceWorkerFloats(q) < SfbWorkerFloats(q);
        if (ring_wins != ring_won) {
          ++flips;
          ring_won = ring_wins;
        }
      }
      EXPECT_LE(flips, 1) << "side=" << side << " K=" << k;
      // And the flip, when it happens, is SFB -> ring (ring gains as P
      // grows: its cost saturates at 2MN while SFB's grows linearly in P).
      if (flips == 1) {
        EXPECT_TRUE(ring_won);
      }
    }
  }
}

// Crossover monotonicity in M*N: at fixed P and K and aspect ratio, scaling
// the layer up flips the winner at most once, from ring (small layers) to
// SFB (large layers, whose rank-K messages grow like sqrt(M*N)).
TEST(CollectiveCostTest, RingVsSfbCrossoverMonotoneInLayerSize) {
  for (int p : {2, 8, 32}) {
    for (int64_t k : {16, 128}) {
      bool sfb_won = false;
      int flips = 0;
      for (int64_t side = 4; side <= 1 << 16; side *= 2) {
        const CommCostQuery q = MakeQuery(side, side, k, p);
        const bool sfb_wins = SfbWorkerFloats(q) < RingAllreduceWorkerFloats(q);
        if (sfb_wins != sfb_won) {
          ++flips;
          sfb_won = sfb_wins;
        }
      }
      EXPECT_LE(flips, 1) << "P=" << p << " K=" << k;
      if (flips == 1) {
        EXPECT_TRUE(sfb_won) << "P=" << p << " K=" << k;
      }
    }
  }
}

// The chooser is optimal by construction; verify against brute force over a
// grid of FC and conv layers.
TEST(CollectiveCostTest, BestSchemeExtendedNeverDominated) {
  for (int p : {1, 2, 3, 5, 8, 16, 64}) {
    for (int64_t m : {16, 1000, 4096}) {
      for (int64_t n : {16, 1024, 25088}) {
        for (int64_t k : {8, 128}) {
          for (LayerType type : {LayerType::kFC, LayerType::kConv}) {
            LayerSpec layer;
            layer.name = "l";
            layer.type = type;
            layer.fc_m = type == LayerType::kFC ? m : 0;
            layer.fc_n = type == LayerType::kFC ? n : 0;
            layer.params = m * n;
            const CommScheme best = BestSchemeExtended(layer, k, p, p);
            if (p == 1) {
              EXPECT_EQ(best, CommScheme::kPS);
              continue;
            }
            CommCostQuery q = MakeQuery(type == LayerType::kFC ? m : m * n,
                                        type == LayerType::kFC ? n : 1, k, p);
            const double best_cost = SchemeWorkerFloats(best, q);
            for (CommScheme alt : {CommScheme::kPS, CommScheme::kSFB, CommScheme::kRing,
                                   CommScheme::kTree}) {
              if (alt == CommScheme::kSFB && type != LayerType::kFC) {
                continue;  // not admissible for conv
              }
              EXPECT_LE(best_cost, SchemeWorkerFloats(alt, q))
                  << CommSchemeName(best) << " dominated by " << CommSchemeName(alt)
                  << " at P=" << p << " m=" << m << " n=" << n << " k=" << k;
            }
          }
        }
      }
    }
  }
}

// Acceptance scenario: a ResNet-style model under a high-worker-count
// cluster must hand at least one layer to a collective scheme.
TEST(CollectiveCostTest, ResNetResolvesToCollectiveUnderManyWorkers) {
  Rng rng(7);
  std::unique_ptr<Network> net =
      BuildSmallResNet(/*channels=*/2, /*image_hw=*/8, /*classes=*/8, /*width=*/8,
                       /*blocks=*/2, rng);
  TrainerOptions options;
  options.num_workers = 32;
  options.num_servers = 32;
  options.batch_per_worker = 32;
  options.fc_policy = PlanPolicy::kHybridCollective;
  const std::shared_ptr<const CommPlan> plan = ResolveTrainerPlan(options, *net);
  int collective_layers = 0;
  for (const PlanLayerChoice& choice : plan->layers) {
    if (choice.scheme == PlannedScheme::kRing || choice.scheme == PlannedScheme::kTree) {
      ++collective_layers;
    }
  }
  EXPECT_GT(collective_layers, 0);
}

// Same property on the spec-level zoo model (the full ResNet-152): the
// three-way chooser must move its conv bulk off the PS at scale.
TEST(CollectiveCostTest, ResNet152SpecPrefersCollectiveConv) {
  const ModelSpec model = MakeResNet152();
  int collective_layers = 0;
  for (const LayerSpec& layer : model.layers) {
    const CommScheme best = BestSchemeExtended(layer, /*batch_k=*/32, /*num_workers=*/32,
                                               /*num_servers=*/32);
    if (best == CommScheme::kRing || best == CommScheme::kTree) {
      ++collective_layers;
    }
  }
  EXPECT_GT(collective_layers, 0);
}

// The compressed chooser is optimal on the byte basis by construction;
// verify against brute force over every admissible (scheme, codec) pair.
TEST(CollectiveCostTest, BestSchemeExtendedCompressedNeverDominated) {
  const double density = 0.05;
  for (int p : {2, 3, 8, 32}) {
    for (int64_t m : {16, 1000, 4096}) {
      for (int64_t n : {16, 1024, 25088}) {
        for (LayerType type : {LayerType::kFC, LayerType::kConv}) {
          LayerSpec layer;
          layer.name = "l";
          layer.type = type;
          layer.fc_m = type == LayerType::kFC ? m : 0;
          layer.fc_n = type == LayerType::kFC ? n : 0;
          layer.params = m * n;
          const SchemeChoice choice =
              BestSchemeExtendedCompressed(layer, /*batch_k=*/32, p, p,
                                           /*ps_shards=*/1, density);
          CommCostQuery q = MakeQuery(type == LayerType::kFC ? m : m * n,
                                      type == LayerType::kFC ? n : 1, 32, p);
          EXPECT_DOUBLE_EQ(choice.bytes,
                           SchemeWireBytes(choice.scheme, choice.compression, q, density));
          for (CommScheme alt : {CommScheme::kPS, CommScheme::kSFB, CommScheme::kRing,
                                 CommScheme::kTree}) {
            if (alt == CommScheme::kSFB && type != LayerType::kFC) {
              continue;  // not admissible for conv
            }
            for (GradCompression codec :
                 {GradCompression::kNone, GradCompression::kFp16, GradCompression::kInt8,
                  GradCompression::kTopK}) {
              if (codec != GradCompression::kNone &&
                  (alt != CommScheme::kPS || m * n < kCompressionMinFloats)) {
                continue;  // only the PS path compresses, above the size gate
              }
              EXPECT_LE(choice.bytes, SchemeWireBytes(alt, codec, q, density))
                  << CommSchemeName(choice.scheme) << "+"
                  << GradCompressionName(choice.compression) << " dominated by "
                  << CommSchemeName(alt) << "+" << GradCompressionName(codec)
                  << " at P=" << p << " m=" << m << " n=" << n;
            }
          }
        }
      }
    }
  }
}

// Acceptance scenario for the byte-basis chooser: on ResNet-152 at 32
// workers the big conv layers leave raw PS for a *compressed* PS row (the
// quantized round trip undercuts even ring allreduce), while layers under
// the size gate stay raw.
TEST(CollectiveCostTest, CompressedChooserMovesLargeConvOntoCompressedPs) {
  const ModelSpec model = MakeResNet152();
  int compressed_ps = 0;
  for (const LayerSpec& layer : model.layers) {
    const SchemeChoice choice = BestSchemeExtendedCompressed(
        layer, /*batch_k=*/32, /*num_workers=*/32, /*num_servers=*/32);
    if (choice.compression != GradCompression::kNone) {
      EXPECT_EQ(choice.scheme, CommScheme::kPS) << layer.name;
      EXPECT_GE(layer.params, kCompressionMinFloats) << layer.name;
      ++compressed_ps;
    }
  }
  EXPECT_GT(compressed_ps, 0)
      << "no layer class chose a compressed scheme on the byte basis";
}

TEST(CollectiveCostTest, CompressedChooserBreaksTiesTowardEarlierCandidate) {
  // Density chosen so top-k's round trip (8d + 2) exactly ties int8's
  // (1 + 4/256 + 2); the strict-improvement rule keeps the earlier int8.
  const double tie_density = (1.0 + 4.0 / 256.0) / 8.0;
  LayerSpec layer;
  layer.name = "conv";
  layer.type = LayerType::kConv;
  layer.params = int64_t{1} << 20;
  const SchemeChoice choice = BestSchemeExtendedCompressed(
      layer, /*batch_k=*/32, /*num_workers=*/32, /*num_servers=*/32,
      /*ps_shards=*/1, tie_density);
  EXPECT_EQ(choice.compression, GradCompression::kInt8);

  // And a single worker never compresses: there is no wire to save.
  const SchemeChoice solo = BestSchemeExtendedCompressed(
      layer, /*batch_k=*/32, /*num_workers=*/1, /*num_servers=*/1);
  EXPECT_EQ(solo.scheme, CommScheme::kPS);
  EXPECT_EQ(solo.compression, GradCompression::kNone);
}

}  // namespace
}  // namespace poseidon
