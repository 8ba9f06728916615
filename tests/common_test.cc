// Tests for the common runtime: RNG, blocking queue, tables, units.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/common/blocking_queue.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace poseidon {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float g = rng.NextGaussian();
    sum += g;
    sum_sq += static_cast<double>(g) * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(99);
  Rng child1 = parent.Split(1);
  Rng child2 = parent.Split(2);
  Rng child1_again = parent.Split(1);
  EXPECT_EQ(child1.Next(), child1_again.Next());
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> queue;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.Push(i));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(queue.Pop().value(), i);
  }
}

TEST(BlockingQueueTest, CloseWakesBlockedConsumer) {
  BlockingQueue<int> queue;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    EXPECT_FALSE(queue.Pop().has_value());
    woke = true;
  });
  queue.Close();
  consumer.join();
  EXPECT_TRUE(woke);
}

TEST(BlockingQueueTest, PushAfterCloseFails) {
  BlockingQueue<int> queue;
  queue.Close();
  EXPECT_FALSE(queue.Push(1));
}

TEST(BlockingQueueTest, TryPopNonBlocking) {
  BlockingQueue<int> queue;
  EXPECT_FALSE(queue.TryPop().has_value());
  queue.Push(5);
  EXPECT_EQ(queue.TryPop().value(), 5);
}

TEST(BlockingQueueTest, DrainsRemainingAfterClose) {
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Close();
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"model", "speedup"});
  table.AddRow({"vgg19", TextTable::Num(15.5, 1)});
  table.AddRow({"googlenet", TextTable::Num(31.0, 1)});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("vgg19"), std::string::npos);
  EXPECT_NE(out.find("15.5"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TextTableTest, CsvFormat) {
  TextTable table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(40.0), 5e9);
  EXPECT_DOUBLE_EQ(BytesPerSecToGbps(5e9), 40.0);
  EXPECT_DOUBLE_EQ(BytesToGigabits(1.25e9), 10.0);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(2.0 * kMiB), "2.00 MiB");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatSeconds(0.0025), "2.50 ms");
}

}  // namespace
}  // namespace poseidon
