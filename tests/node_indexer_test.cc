#include "core/node_indexer.h"

#include <algorithm>
#include <functional>
#include <gtest/gtest.h>

#include "common/random.h"

namespace vero {
namespace {

TEST(RowPartitionTest, InitPlacesAllOnRoot) {
  RowPartition p;
  p.Init(10, 4);
  ASSERT_TRUE(p.Has(0));
  EXPECT_EQ(p.Count(0), 10u);
  auto inst = p.Instances(0);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(inst[i], i);
  EXPECT_FALSE(p.Has(1));
}

TEST(RowPartitionTest, SplitMovesByBitmapStably) {
  RowPartition p;
  p.Init(6, 3);
  Bitmap go_left(6);
  go_left.Set(0);
  go_left.Set(2);
  go_left.Set(5);
  p.Split(0, go_left);
  EXPECT_FALSE(p.Has(0));
  ASSERT_TRUE(p.Has(1));
  ASSERT_TRUE(p.Has(2));
  EXPECT_EQ(p.Count(1), 3u);
  EXPECT_EQ(p.Count(2), 3u);
  auto left = p.Instances(1);
  auto right = p.Instances(2);
  EXPECT_EQ(left[0], 0u);
  EXPECT_EQ(left[1], 2u);
  EXPECT_EQ(left[2], 5u);
  EXPECT_EQ(right[0], 1u);
  EXPECT_EQ(right[1], 3u);
  EXPECT_EQ(right[2], 4u);
}

TEST(RowPartitionTest, SplitAllLeft) {
  RowPartition p;
  p.Init(4, 3);
  Bitmap all(4);
  for (size_t i = 0; i < 4; ++i) all.Set(i);
  p.Split(0, all);
  EXPECT_EQ(p.Count(1), 4u);
  EXPECT_EQ(p.Count(2), 0u);
}

TEST(RowPartitionTest, NestedSplitsPreserveMembership) {
  Rng rng(5);
  RowPartition p;
  const uint32_t n = 1000;
  p.Init(n, 5);
  std::vector<NodeId> frontier = {0};
  // Split three levels randomly; verify the leaves partition [0, n).
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<NodeId> next;
    for (NodeId node : frontier) {
      const uint32_t count = p.Count(node);
      Bitmap go_left(count);
      for (uint32_t j = 0; j < count; ++j) {
        go_left.Assign(j, rng.Bernoulli(0.3));
      }
      p.Split(node, go_left);
      next.push_back(LeftChild(node));
      next.push_back(RightChild(node));
    }
    frontier = std::move(next);
  }
  std::vector<bool> seen(n, false);
  uint32_t total = 0;
  for (NodeId node : frontier) {
    ASSERT_TRUE(p.Has(node));
    for (InstanceId i : p.Instances(node)) {
      EXPECT_FALSE(seen[i]) << "instance " << i << " appears twice";
      seen[i] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, n);
}

TEST(RowPartitionTest, SplitKeepsRelativeOrderOnBothSides) {
  Rng rng(9);
  RowPartition p;
  const uint32_t n = 500;
  p.Init(n, 3);
  Bitmap go_left(n);
  for (uint32_t j = 0; j < n; ++j) go_left.Assign(j, rng.Bernoulli(0.5));
  p.Split(0, go_left);
  for (NodeId child : {1, 2}) {
    auto inst = p.Instances(child);
    EXPECT_TRUE(std::is_sorted(inst.begin(), inst.end()));
  }
}

// The vertical quadrants' placement cursors (BinnedRowStore::FillGoLeft,
// BinnedColumnStore::FillGoLeft) are fast only if every node lists its
// instances in strictly ascending id order. Split a full tree and a
// subsampled one at random and check that order on every live node.
TEST(RowPartitionTest, InstancesStayStrictlyAscendingUnderRandomSplits) {
  constexpr uint32_t kLayers = 6;
  const uint32_t n = 700;
  Rng rng(77);
  for (const bool subset : {false, true}) {
    RowPartition p;
    if (subset) {
      p.InitSubset(rng.SampleWithoutReplacement(n, n / 3), kLayers);
    } else {
      p.Init(n, kLayers);
    }
    std::vector<NodeId> live = {0};
    for (uint32_t depth = 0; depth + 1 < kLayers; ++depth) {
      std::vector<NodeId> next;
      for (NodeId node : live) {
        if (rng.Bernoulli(0.25)) {  // stays a leaf
          next.push_back(node);
          continue;
        }
        const double p_left = rng.NextDouble();
        Bitmap go_left(p.Count(node));
        for (size_t j = 0; j < go_left.size(); ++j) {
          go_left.Assign(j, rng.Bernoulli(p_left));
        }
        p.Split(node, go_left);
        next.push_back(LeftChild(node));
        next.push_back(RightChild(node));
      }
      live = std::move(next);
      uint32_t total = 0;
      for (NodeId node : live) {
        ASSERT_TRUE(p.Has(node));
        const auto inst = p.Instances(node);
        total += static_cast<uint32_t>(inst.size());
        EXPECT_TRUE(std::adjacent_find(inst.begin(), inst.end(),
                                       std::greater_equal<InstanceId>()) ==
                    inst.end())
            << "node " << node << " at depth " << depth + 1
            << (subset ? " (subset)" : "");
      }
      EXPECT_EQ(total, p.num_instances());
    }
  }
}

TEST(RowPartitionDeathTest, WrongBitmapSizeDies) {
  RowPartition p;
  p.Init(5, 3);
  Bitmap wrong(3);
  EXPECT_DEATH(p.Split(0, wrong), "Check failed");
}

TEST(RowPartitionDeathTest, SplitMissingNodeDies) {
  RowPartition p;
  p.Init(5, 3);
  Bitmap b(5);
  EXPECT_DEATH(p.Split(1, b), "Check failed");
}

TEST(InstanceToNodeTest, InitAndSetGet) {
  InstanceToNode idx;
  idx.Init(5);
  for (InstanceId i = 0; i < 5; ++i) EXPECT_EQ(idx.Get(i), 0);
  idx.Set(2, 7);
  EXPECT_EQ(idx.Get(2), 7);
  EXPECT_EQ(idx.Count(0), 4u);
  EXPECT_EQ(idx.Count(7), 1u);
}

TEST(MemoryBytesTest, NonZeroAfterInit) {
  RowPartition p;
  p.Init(100, 4);
  EXPECT_GT(p.MemoryBytes(), 0u);
  InstanceToNode idx;
  idx.Init(100);
  EXPECT_GT(idx.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace vero
