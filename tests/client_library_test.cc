// Tests of the client library's syncer loop: WFBP keeps every layer's sync
// in flight at once, even on a single syncer thread.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/poseidon/client_library.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::SmallClusterInfo;
using testing::TinyDataset;
using testing::TinyMlpFactory;

constexpr int kServers = 2;
constexpr int kBatch = 6;

TEST(ClientLibraryTest, OneSyncerThreadPushesEveryLayerBeforeAnyReply) {
  // The shards are the test: it holds every reply back until each PS
  // layer's push for the iteration has reached its shard mailbox. A loop
  // that awaited one layer's reply before sending the next layer's push
  // would deliver a single layer's pushes and stall here.
  const NetworkFactory factory = TinyMlpFactory(/*hidden_layers=*/4);
  std::unique_ptr<Network> net = factory();
  Coordinator coordinator(*net, SmallClusterInfo(/*workers=*/1, kServers, kBatch));
  CommPlan plan;
  std::set<int> ps_layers;
  int expected_pushes = 0;
  for (int l = 0; l < net->num_layers(); ++l) {
    PlanLayerChoice choice;
    choice.layer = net->layer(l).name();
    choice.scheme = net->layer(l).Params().empty() ? PlannedScheme::kNone : PlannedScheme::kPS;
    plan.layers.push_back(choice);
    if (choice.scheme == PlannedScheme::kPS) {
      ps_layers.insert(l);
      for (int s = 0; s < kServers; ++s) {
        expected_pushes += coordinator.PairsOnShard(l, choice, s, 0).empty() ? 0 : 1;
      }
    }
  }
  ASSERT_GE(ps_layers.size(), 5u);

  MessageBus bus(coordinator.cluster().NumNodes());
  std::vector<std::shared_ptr<MessageBus::Mailbox>> shards;
  for (int s = 0; s < kServers; ++s) {
    shards.push_back(bus.Register(coordinator.cluster().ShardAddress(s, 0)));
  }
  ClientLibrary client(/*worker=*/0, coordinator, plan, net.get(), &bus,
                       SgdConfig{.learning_rate = 0.05f, .momentum = 0.9f},
                       /*num_threads=*/1);

  const SyntheticDataset data = TinyDataset();
  const Batch batch = data.TrainBatch(0, kBatch, 0, 1);
  net->Forward(batch.images, batch.labels);
  client.StartIteration(0);
  for (int l = net->num_layers() - 1; l >= 0; --l) {
    net->BackwardThrough(l);
    client.ScheduleSync(l);
  }

  // Collect pushes with no reply sent, until all arrived or none came for a
  // generous while.
  std::vector<Message> pushes;
  std::set<int> pushed_layers;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (static_cast<int>(pushes.size()) < expected_pushes &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& shard : shards) {
      if (std::optional<Message> push = shard->PopFor(std::chrono::milliseconds(10))) {
        EXPECT_EQ(push->type, MessageType::kGradPush);
        EXPECT_EQ(push->iter, 0);
        pushed_layers.insert(push->layer);
        pushes.push_back(std::move(*push));
      }
    }
  }
  EXPECT_EQ(pushed_layers, ps_layers) << "layers pushed before the first reply";
  EXPECT_EQ(static_cast<int>(pushes.size()), expected_pushes);

  // Now serve: echo each push's chunks as its reply, including pushes a
  // serializing loop sends only after an earlier reply, so WaitAll returns.
  int replied = 0;
  while (replied < expected_pushes) {
    for (const Message& push : pushes) {
      Message reply;
      reply.type = MessageType::kParamReply;
      reply.from = push.to;
      reply.to = push.from;
      reply.layer = push.layer;
      reply.worker = push.worker;
      reply.iter = push.iter;
      reply.codec = WireCodec::kRawFloat;
      reply.chunks = push.chunks;
      ASSERT_TRUE(bus.Send(std::move(reply)).ok());
      ++replied;
    }
    pushes.clear();
    for (auto& shard : shards) {
      while (replied + static_cast<int>(pushes.size()) < expected_pushes) {
        std::optional<Message> push = shard->PopFor(std::chrono::milliseconds(10));
        if (!push.has_value()) {
          break;
        }
        pushes.push_back(std::move(*push));
      }
    }
  }
  client.WaitAll();
}

}  // namespace
}  // namespace poseidon
