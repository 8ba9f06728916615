// Tests for checkpoint save/restore: round-trips, error handling, and
// trainer resume semantics (restored runs continue on the same parameters
// and the same sample-stream position).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/poseidon/checkpoint.h"
#include "src/poseidon/trainer.h"
#include "src/tensor/ops.h"

namespace poseidon {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

TEST(CheckpointTest, RoundTripIsBitwise) {
  Rng rng(1);
  auto net = BuildMlp(32, 16, 2, 4, rng);
  const std::vector<float> before = AllParams(*net);
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(*net, 42, path).ok());

  Rng rng2(999);  // deliberately different init
  auto restored = BuildMlp(32, 16, 2, 4, rng2);
  const StatusOr<int64_t> iter = LoadCheckpoint(path, restored.get());
  ASSERT_TRUE(iter.ok()) << iter.status().ToString();
  EXPECT_EQ(*iter, 42);
  EXPECT_EQ(AllParams(*restored), before);
}

std::string ReadFile(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

TEST(CheckpointTest, OverwritingALongerCheckpointLeavesExactlyTheNewOne) {
  // The file is replaced, not truncated in place: whatever the old file
  // held past the new one's end must be gone.
  Rng rng(5);
  auto big = BuildMlp(32, 16, 3, 4, rng);
  auto small = BuildMlp(8, 8, 1, 2, rng);
  const std::string path = TempPath("overwrite.ckpt");
  const std::string reference = TempPath("overwrite_reference.ckpt");
  ASSERT_TRUE(SaveCheckpoint(*big, 7, path).ok());
  const std::string old_bytes = ReadFile(path);
  ASSERT_TRUE(SaveCheckpoint(*small, 3, path).ok());
  ASSERT_TRUE(SaveCheckpoint(*small, 3, reference).ok());
  const std::string new_bytes = ReadFile(path);
  ASSERT_LT(new_bytes.size(), old_bytes.size());
  EXPECT_EQ(new_bytes, ReadFile(reference));

  Rng rng2(6);
  auto restored = BuildMlp(8, 8, 1, 2, rng2);
  const StatusOr<int64_t> iter = LoadCheckpoint(path, restored.get());
  ASSERT_TRUE(iter.ok()) << iter.status().ToString();
  EXPECT_EQ(*iter, 3);
  EXPECT_EQ(AllParams(*restored), AllParams(*small));
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Rng rng(2);
  auto net = BuildMlp(8, 8, 1, 2, rng);
  const StatusOr<int64_t> result = LoadCheckpoint(TempPath("nope.ckpt"), net.get());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, ShapeMismatchRejected) {
  Rng rng(3);
  auto small = BuildMlp(8, 8, 1, 2, rng);
  const std::string path = TempPath("small.ckpt");
  ASSERT_TRUE(SaveCheckpoint(*small, 0, path).ok());
  auto big = BuildMlp(16, 8, 1, 2, rng);
  const StatusOr<int64_t> result = LoadCheckpoint(path, big.get());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a checkpoint at all, not even close............", f);
  std::fclose(f);
  Rng rng(4);
  auto net = BuildMlp(8, 8, 1, 2, rng);
  const StatusOr<int64_t> result = LoadCheckpoint(path, net.get());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, TrainerResumeContinuesSampleStream) {
  DatasetConfig data;
  data.num_classes = 4;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 128;
  data.seed = 55;
  SyntheticDataset dataset(data);

  NetworkFactory factory = [] {
    Rng rng(321);
    return BuildMlp(64, 16, 1, 4, rng);
  };
  TrainerOptions options;
  options.num_workers = 2;
  options.num_servers = 2;
  options.batch_per_worker = 8;
  options.sgd = {.learning_rate = 0.05f};  // no momentum: resume is then exact
  options.fc_policy = PlanPolicy::kHybrid;

  const std::string path = TempPath("resume.ckpt");
  std::vector<float> continuous;
  {
    PoseidonTrainer trainer(factory, options);
    trainer.Train(dataset, 6);
    ASSERT_TRUE(trainer.SaveCheckpointTo(path).ok());
    trainer.Train(dataset, 4);  // the uninterrupted reference
    continuous = AllParams(trainer.worker_net(0));
  }
  {
    TrainerOptions resumed = options;
    resumed.restore_path = path;
    PoseidonTrainer trainer(factory, resumed);
    EXPECT_EQ(trainer.next_iter(), 6);
    trainer.Train(dataset, 4);
    EXPECT_EQ(AllParams(trainer.worker_net(0)), continuous)
        << "resumed run must replay the same trajectory";
  }
}

}  // namespace
}  // namespace poseidon
