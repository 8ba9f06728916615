// Tests of the per-layer syncer step (Syncer::Handle): three
// workers' syncers for one layer are stepped by the test thread over an
// in-process bus (no batching, no faults, no ClientLibrary loop), each step
// flushing the bus's egress so what it sent has arrived, the test choosing
// the delivery order with TryPop. Every order must leave the
// layer's parameters bitwise equal across ranks, across orders, and to a
// threaded ClientLibrary run of the same iterations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/poseidon/client_library.h"
#include "src/poseidon/syncer.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::SmallClusterInfo;
using testing::TinyDataset;
using testing::TinyMlpFactory;

constexpr int kWorkers = 3;
constexpr int kLayer = 2;  // fc2 of the tiny MLP: 20x20 weights + bias
constexpr int kBatch = 6;
constexpr int kIters = 2;
constexpr SgdConfig kSgd{.learning_rate = 0.05f, .momentum = 0.9f};

/// Only kLayer synchronizes, so no KV server is needed.
CommPlan OneLayerPlan(Network& net, PlannedScheme scheme) {
  CommPlan plan;
  for (int l = 0; l < net.num_layers(); ++l) {
    PlanLayerChoice choice;
    choice.layer = net.layer(l).name();
    choice.scheme = l == kLayer ? scheme : PlannedScheme::kNone;
    plan.layers.push_back(choice);
  }
  return plan;
}

std::vector<float> LayerParams(Network& net) {
  std::vector<float> out;
  for (const ParamBlock& block : net.layer(kLayer).Params()) {
    out.insert(out.end(), block.value->data(), block.value->data() + block.value->size());
  }
  return out;
}

/// Worker w's forward pass over its iteration-`iter` batch.
void Forward(Network& net, const SyntheticDataset& data, int w, int64_t iter) {
  const Batch batch = data.TrainBatch(iter, kBatch, w, kWorkers);
  net.Forward(batch.images, batch.labels);
}

/// kLayer's parameters on every rank after kIters iterations run by
/// ClientLibrary syncer loops, one training thread per worker.
std::vector<std::vector<float>> ThreadedRun(PlannedScheme scheme) {
  const SyntheticDataset data = TinyDataset();
  const NetworkFactory factory = TinyMlpFactory();
  std::unique_ptr<Network> init = factory();
  Coordinator coordinator(*init, SmallClusterInfo(kWorkers, /*servers=*/1, kBatch));
  const CommPlan plan = OneLayerPlan(*init, scheme);
  MessageBus bus(kWorkers);
  std::vector<std::unique_ptr<Network>> nets;
  std::vector<std::unique_ptr<ClientLibrary>> clients;
  for (int w = 0; w < kWorkers; ++w) {
    nets.push_back(factory());
    clients.push_back(std::make_unique<ClientLibrary>(w, coordinator, plan, nets.back().get(),
                                                      &bus, kSgd, /*num_threads=*/2));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Network& net = *nets[static_cast<size_t>(w)];
      ClientLibrary& client = *clients[static_cast<size_t>(w)];
      for (int64_t iter = 0; iter < kIters; ++iter) {
        Forward(net, data, w, iter);
        client.StartIteration(iter);
        for (int l = net.num_layers() - 1; l >= 0; --l) {
          net.BackwardThrough(l);
          client.ScheduleSync(l);
        }
        client.WaitAll();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<std::vector<float>> params;
  for (auto& net : nets) {
    params.push_back(LayerParams(*net));
  }
  EXPECT_NE(params[0], LayerParams(*init)) << "the layer never stepped";
  return params;
}

/// Three replicas and their kLayer syncers, stepped by the test thread.
class StepCluster {
 public:
  explicit StepCluster(PlannedScheme scheme)
      : init_(factory_()),
        coordinator_(*init_, SmallClusterInfo(kWorkers, /*servers=*/1, kBatch)),
        plan_(OneLayerPlan(*init_, scheme)),
        bus_(kWorkers) {
    const bool collective = scheme == PlannedScheme::kRing || scheme == PlannedScheme::kTree;
    for (int w = 0; w < kWorkers; ++w) {
      nets_.push_back(factory_());
      optimizers_.push_back(std::make_unique<SgdOptimizer>(kSgd));
      syncers_.push_back(std::make_unique<Syncer>(w, kLayer, plan_, coordinator_, &bus_,
                                                  &nets_.back()->layer(kLayer),
                                                  optimizers_.back().get()));
      // The test pops the layer's port itself (a collective registered its
      // port already; Register returns that mailbox).
      mailboxes_.push_back(bus_.Register(
          Address{w, (collective ? kCollectivePortBase : kSyncerPortBase) + kLayer}));
    }
  }

  Syncer& syncer(int w) { return *syncers_[static_cast<size_t>(w)]; }
  MessageBus::Mailbox& mailbox(int w) { return *mailboxes_[static_cast<size_t>(w)]; }

  /// Worker w's compute for `iter`, then MoveOut and the non-blocking Send,
  /// flushed to the peers' mailboxes. Returns Send's verdict: true when
  /// messages deferred before it already completed the iteration.
  bool Send(int w, int64_t iter) {
    Network& net = *nets_[static_cast<size_t>(w)];
    Forward(net, data_, w, iter);
    for (int l = net.num_layers() - 1; l >= 0; --l) {
      net.BackwardThrough(l);
    }
    syncer(w).MoveOut();
    const bool done = syncer(w).Send(iter);
    bus_.FlushEgress();
    return done;
  }

  /// Worker w's syncer handles `message`; whatever that sends is flushed to
  /// the peers' mailboxes. Returns Handle's verdict.
  bool Handle(int w, const Message& message) {
    const bool done = syncer(w).Handle(message);
    bus_.FlushEgress();
    return done;
  }

  /// Everything waiting in worker w's mailbox, in arrival order.
  std::vector<Message> Drain(int w) {
    std::vector<Message> messages;
    while (std::optional<Message> message = mailbox(w).TryPop()) {
      messages.push_back(std::move(*message));
    }
    return messages;
  }

  std::vector<std::vector<float>> Params() {
    std::vector<std::vector<float>> params;
    for (auto& net : nets_) {
      params.push_back(LayerParams(*net));
    }
    return params;
  }

 private:
  const SyntheticDataset data_ = TinyDataset();
  const NetworkFactory factory_ = TinyMlpFactory();
  std::unique_ptr<Network> init_;
  Coordinator coordinator_;
  CommPlan plan_;
  MessageBus bus_;
  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<std::unique_ptr<SgdOptimizer>> optimizers_;
  std::vector<std::unique_ptr<Syncer>> syncers_;
  std::vector<std::shared_ptr<MessageBus::Mailbox>> mailboxes_;
};

void ExpectAllEqual(const std::vector<std::vector<float>>& params,
                    const std::vector<float>& expected) {
  for (size_t w = 0; w < params.size(); ++w) {
    EXPECT_EQ(params[w], expected) << "rank " << w;
  }
}

TEST(SyncerStepTest, SfbAnyArrivalOrderWithAPeerAhead) {
  const std::vector<std::vector<float>> threaded = ThreadedRun(PlannedScheme::kSFB);
  ExpectAllEqual(threaded, threaded[0]);

  // Worker 2 runs one iteration ahead: it completes iteration 0 and sends
  // its iteration-1 SF before workers 0 and 1 consume anything. Each of them
  // then holds three SFs — the other early worker's and worker 2's for
  // iteration 0, worker 2's for iteration 1 — delivered in every order.
  std::vector<int> order = {0, 1, 2};
  int orders = 0;
  do {
    SCOPED_TRACE(::testing::Message() << "delivery order " << order[0] << order[1] << order[2]);
    StepCluster cluster(PlannedScheme::kSFB);
    for (int w = 0; w < kWorkers; ++w) {
      cluster.Send(w, 0);
    }
    std::vector<Message> at2 = cluster.Drain(2);
    ASSERT_EQ(at2.size(), 2u);
    if (order[0] > order[1]) {
      std::swap(at2[0], at2[1]);
    }
    EXPECT_FALSE(cluster.Handle(2, at2[0]));
    EXPECT_TRUE(cluster.Handle(2, at2[1]));
    EXPECT_FALSE(cluster.Send(2, 1));

    for (int w : {0, 1}) {
      std::vector<Message> arrived = cluster.Drain(w);
      ASSERT_EQ(arrived.size(), 3u);
      ASSERT_EQ(arrived[2].iter, 1);
      int iter0_handled = 0;
      for (int i : order) {
        Message& message = arrived[static_cast<size_t>(i)];
        if (iter0_handled == 2) {
          // Iteration 0 already completed: the iteration-1 SF stays queued
          // until after the next Send.
          ASSERT_TRUE(cluster.mailbox(w).Push(std::move(message)));
          continue;
        }
        iter0_handled += message.iter == 0 ? 1 : 0;
        // Only the second iteration-0 SF completes the iteration; an early
        // iteration-1 SF is deferred.
        EXPECT_EQ(cluster.Handle(w, message), iter0_handled == 2);
      }
    }

    // Iteration 1: every SF is already sent or deferred, so what is queued
    // completes each worker's iteration. Send hands a deferred SF to Handle
    // itself; none of the three holds all of its peers' SFs by then.
    EXPECT_FALSE(cluster.Send(0, 1));
    EXPECT_FALSE(cluster.Send(1, 1));
    for (int w = 0; w < kWorkers; ++w) {
      bool done = false;
      while (!done) {
        std::optional<Message> message = cluster.mailbox(w).TryPop();
        ASSERT_TRUE(message.has_value()) << "worker " << w << " is missing an SF";
        done = cluster.Handle(w, *message);
      }
      EXPECT_EQ(cluster.mailbox(w).size(), 0u);
    }
    ExpectAllEqual(cluster.Params(), threaded[0]);
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 6);
}

class CollectiveStepTest : public ::testing::TestWithParam<PlannedScheme> {};

TEST_P(CollectiveStepTest, AnyRankStepOrder) {
  const PlannedScheme scheme = GetParam();
  const std::vector<std::vector<float>> threaded = ThreadedRun(scheme);
  ExpectAllEqual(threaded, threaded[0]);

  // Each round steps the ranks' mailboxes in `ranks` order, one hop each.
  std::vector<int> ranks = {0, 1, 2};
  int orders = 0;
  do {
    SCOPED_TRACE(::testing::Message() << "rank order " << ranks[0] << ranks[1] << ranks[2]);
    StepCluster cluster(scheme);
    for (int64_t iter = 0; iter < kIters; ++iter) {
      for (int w = 0; w < kWorkers; ++w) {
        cluster.Send(w, iter);
      }
      std::vector<bool> done(kWorkers, false);
      int finished = 0;
      while (finished < kWorkers) {
        bool stepped = false;
        for (int r : ranks) {
          std::optional<Message> hop = cluster.mailbox(r).TryPop();
          if (!hop.has_value()) {
            continue;
          }
          stepped = true;
          if (cluster.Handle(r, *hop)) {
            ASSERT_FALSE(done[static_cast<size_t>(r)]) << "rank " << r << " completed twice";
            done[static_cast<size_t>(r)] = true;
            ++finished;
          }
        }
        ASSERT_TRUE(stepped) << "no hop queued but " << kWorkers - finished
                             << " ranks unfinished";
      }
      for (int w = 0; w < kWorkers; ++w) {
        EXPECT_EQ(cluster.mailbox(w).size(), 0u) << "rank " << w << " has stray hops";
      }
    }
    ExpectAllEqual(cluster.Params(), threaded[0]);
    ++orders;
  } while (std::next_permutation(ranks.begin(), ranks.end()));
  EXPECT_EQ(orders, 6);
}

INSTANTIATE_TEST_SUITE_P(RingAndTree, CollectiveStepTest,
                         ::testing::Values(PlannedScheme::kRing, PlannedScheme::kTree),
                         [](const ::testing::TestParamInfo<PlannedScheme>& info) {
                           return std::string(PlannedSchemeName(info.param));
                         });

}  // namespace
}  // namespace poseidon
