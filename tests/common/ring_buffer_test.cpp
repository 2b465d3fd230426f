#include "common/ring_buffer.h"

#include <vector>

#include <gtest/gtest.h>

namespace sds {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBufferTest, FillsInOrder) {
  RingBuffer<int> rb(3);
  rb.Push(1);
  rb.Push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb.oldest(), 1);
  EXPECT_EQ(rb.newest(), 2);
}

TEST(RingBufferTest, EvictsOldestWhenFull) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.Push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 3);
  EXPECT_EQ(rb[1], 4);
  EXPECT_EQ(rb[2], 5);
}

TEST(RingBufferTest, ToVectorMatchesIndexing) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 9; ++i) rb.Push(i * 10);
  const std::vector<int> v = rb.ToVector();
  ASSERT_EQ(v.size(), rb.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], rb[i]);
  EXPECT_EQ(v.front(), 50);
  EXPECT_EQ(v.back(), 80);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> rb(2);
  rb.Push(1);
  rb.Push(2);
  rb.Clear();
  EXPECT_TRUE(rb.empty());
  rb.Push(9);
  EXPECT_EQ(rb.oldest(), 9);
  EXPECT_EQ(rb.newest(), 9);
}

TEST(RingBufferTest, CapacityOneKeepsNewest) {
  RingBuffer<int> rb(1);
  rb.Push(1);
  rb.Push(2);
  rb.Push(3);
  EXPECT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb[0], 3);
}

// Property: after N pushes, contents equal the last min(N, capacity) values.
class RingBufferPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingBufferPropertyTest, KeepsSuffix) {
  const auto [capacity, pushes] = GetParam();
  RingBuffer<int> rb(static_cast<std::size_t>(capacity));
  for (int i = 0; i < pushes; ++i) rb.Push(i);
  const auto expected_size =
      static_cast<std::size_t>(std::min(capacity, pushes));
  ASSERT_EQ(rb.size(), expected_size);
  for (std::size_t i = 0; i < expected_size; ++i) {
    EXPECT_EQ(rb[i], pushes - static_cast<int>(expected_size) +
                         static_cast<int>(i));
  }
  // The two contiguous runs, concatenated, are the same elements in order.
  const auto [older, newer] = rb.Runs();
  std::vector<int> joined(older.begin(), older.end());
  joined.insert(joined.end(), newer.begin(), newer.end());
  EXPECT_EQ(joined, rb.ToVector());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RingBufferPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 64),
                       ::testing::Values(0, 1, 6, 7, 8, 100)));

}  // namespace
}  // namespace sds
