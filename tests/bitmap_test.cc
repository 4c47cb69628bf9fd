#include "common/bitmap.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace vero {
namespace {

TEST(BitmapTest, StartsAllZero) {
  Bitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.Count(), 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.Get(i));
}

TEST(BitmapTest, SetClearAssign) {
  Bitmap b(70);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(69);
  EXPECT_TRUE(b.Get(0));
  EXPECT_TRUE(b.Get(63));
  EXPECT_TRUE(b.Get(64));
  EXPECT_TRUE(b.Get(69));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Get(63));
  b.Assign(1, true);
  b.Assign(0, false);
  EXPECT_TRUE(b.Get(1));
  EXPECT_FALSE(b.Get(0));
  // Remaining set bits: {1, 64, 69}.
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitmapTest, ResetZeroes) {
  Bitmap b(130);
  for (size_t i = 0; i < 130; i += 3) b.Set(i);
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.size(), 130u);
}

TEST(BitmapTest, SerializedBytesIsCeilDiv8) {
  EXPECT_EQ(Bitmap(0).SerializedBytes(), 0u);
  EXPECT_EQ(Bitmap(1).SerializedBytes(), 1u);
  EXPECT_EQ(Bitmap(8).SerializedBytes(), 1u);
  EXPECT_EQ(Bitmap(9).SerializedBytes(), 2u);
  EXPECT_EQ(Bitmap(64).SerializedBytes(), 8u);
  EXPECT_EQ(Bitmap(1000).SerializedBytes(), 125u);
}

TEST(BitmapTest, TheThirtyTwoTimesReduction) {
  // §4.2.2: a bitmap placement is 32x smaller than 4-byte-per-instance ids.
  const size_t n = 1 << 20;
  EXPECT_EQ(Bitmap(n).SerializedBytes() * 32, n * sizeof(uint32_t));
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap b(77);
  for (size_t i = 0; i < 77; i += 2) b.Set(i);
  std::vector<uint8_t> bytes;
  b.SerializeTo(&bytes);
  EXPECT_EQ(bytes.size(), b.SerializedBytes());
  Bitmap c;
  ASSERT_TRUE(Bitmap::Deserialize(bytes.data(), bytes.size(), 77, &c));
  EXPECT_EQ(b, c);
}

TEST(BitmapTest, DeserializeRejectsShortBuffer) {
  std::vector<uint8_t> bytes(5, 0xFF);
  Bitmap c;
  EXPECT_FALSE(Bitmap::Deserialize(bytes.data(), bytes.size(), 100, &c));
}

TEST(BitmapTest, DeserializeMasksTailGarbage) {
  // Extra bits beyond num_bits in the last byte must not leak into Count.
  std::vector<uint8_t> bytes = {0xFF};
  Bitmap c;
  ASSERT_TRUE(Bitmap::Deserialize(bytes.data(), bytes.size(), 3, &c));
  EXPECT_EQ(c.Count(), 3u);
  EXPECT_EQ(c.size(), 3u);
}

TEST(BitmapTest, AppendSerializationConcatenates) {
  Bitmap a(10), b(20);
  a.Set(1);
  b.Set(19);
  std::vector<uint8_t> bytes;
  a.SerializeTo(&bytes);
  const size_t a_bytes = bytes.size();
  b.SerializeTo(&bytes);
  Bitmap a2, b2;
  ASSERT_TRUE(Bitmap::Deserialize(bytes.data(), bytes.size(), 10, &a2));
  ASSERT_TRUE(Bitmap::Deserialize(bytes.data() + a_bytes,
                                  bytes.size() - a_bytes, 20, &b2));
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
}

class BitmapPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitmapPropertyTest, RandomRoundTripPreservesEveryBit) {
  const size_t n = GetParam();
  Rng rng(n * 31 + 7);
  Bitmap b(n);
  std::vector<bool> expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] = rng.Bernoulli(0.4);
    b.Assign(i, expected[i]);
  }
  std::vector<uint8_t> bytes;
  b.SerializeTo(&bytes);
  Bitmap c;
  ASSERT_TRUE(Bitmap::Deserialize(bytes.data(), bytes.size(), n, &c));
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(c.Get(i), expected[i]) << "bit " << i;
    count += expected[i];
  }
  EXPECT_EQ(c.Count(), count);
}

// Fill writes whole words: it must visit each bit once in ascending order,
// overwrite stale bits, and leave the padding past size() zero, so that ==
// and the wire bytes match a bitmap built bit by bit.
TEST_P(BitmapPropertyTest, FillMatchesAssignAndWireBytes) {
  const size_t n = GetParam();
  Rng rng(n * 17 + 3);
  std::vector<bool> want(n);
  Bitmap assigned(n);
  Bitmap filled(n);
  for (size_t i = 0; i < n; ++i) {
    want[i] = rng.Bernoulli(0.4);
    assigned.Assign(i, want[i]);
    filled.Set(i);  // stale bits
  }
  size_t next = 0;
  filled.Fill([&](size_t j) {
    EXPECT_EQ(j, next++);
    return static_cast<bool>(want[j]);
  });
  EXPECT_EQ(next, n);
  EXPECT_EQ(filled, assigned);
  std::vector<uint8_t> filled_bytes, assigned_bytes;
  filled.SerializeTo(&filled_bytes);
  assigned.SerializeTo(&assigned_bytes);
  EXPECT_EQ(filled_bytes, assigned_bytes);
  Bitmap decoded;
  ASSERT_TRUE(Bitmap::Deserialize(filled_bytes.data(), filled_bytes.size(), n,
                                  &decoded));
  EXPECT_EQ(decoded, filled);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapPropertyTest,
                         ::testing::Values(1, 7, 8, 63, 64, 65, 127, 128, 1000,
                                           4096, 0, 129));

}  // namespace
}  // namespace vero
