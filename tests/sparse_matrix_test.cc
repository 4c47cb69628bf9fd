#include "data/sparse_matrix.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace vero {
namespace {

CsrMatrix MakeSmall() {
  // rows: 0 -> {(0, 1.0), (2, 3.0)}, 1 -> {}, 2 -> {(1, 2.0), (2, 5.0)}
  CsrMatrix m;
  m.set_num_cols(3);
  m.StartRow();
  m.PushEntry(0, 1.0f);
  m.PushEntry(2, 3.0f);
  m.StartRow();
  m.StartRow();
  m.PushEntry(1, 2.0f);
  m.PushEntry(2, 5.0f);
  return m;
}

TEST(CsrMatrixTest, BasicShape) {
  CsrMatrix m = MakeSmall();
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 3u);
  EXPECT_EQ(m.num_nonzeros(), 4u);
  EXPECT_EQ(m.RowLength(0), 2u);
  EXPECT_EQ(m.RowLength(1), 0u);
  auto f0 = m.RowFeatures(0);
  auto v0 = m.RowValues(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[0], 0u);
  EXPECT_EQ(f0[1], 2u);
  EXPECT_EQ(v0[0], 1.0f);
  EXPECT_EQ(v0[1], 3.0f);
}

TEST(CsrMatrixTest, ToCscTransposesCorrectly) {
  CscMatrix c = MakeSmall().ToCsc();
  EXPECT_EQ(c.num_rows(), 3u);
  EXPECT_EQ(c.num_cols(), 3u);
  EXPECT_EQ(c.num_nonzeros(), 4u);
  auto col2_rows = c.ColumnRows(2);
  auto col2_vals = c.ColumnValues(2);
  ASSERT_EQ(col2_rows.size(), 2u);
  EXPECT_EQ(col2_rows[0], 0u);
  EXPECT_EQ(col2_rows[1], 2u);
  EXPECT_EQ(col2_vals[0], 3.0f);
  EXPECT_EQ(col2_vals[1], 5.0f);
  EXPECT_EQ(c.ColumnLength(0), 1u);
  EXPECT_EQ(c.ColumnLength(1), 1u);
}

TEST(CsrMatrixTest, SliceRows) {
  CsrMatrix m = MakeSmall();
  CsrMatrix s = m.SliceRows(1, 3);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.num_cols(), 3u);
  EXPECT_EQ(s.num_nonzeros(), 2u);
  EXPECT_EQ(s.RowLength(0), 0u);
  auto f = s.RowFeatures(1);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], 1u);
}

TEST(CsrMatrixTest, SliceEmptyRange) {
  CsrMatrix s = MakeSmall().SliceRows(1, 1);
  EXPECT_EQ(s.num_rows(), 0u);
  EXPECT_EQ(s.num_nonzeros(), 0u);
}

TEST(CscMatrixTest, ToCsrInverts) {
  CsrMatrix m = MakeSmall();
  CsrMatrix round = m.ToCsc().ToCsr();
  EXPECT_EQ(round.num_rows(), m.num_rows());
  EXPECT_EQ(round.row_ptr(), m.row_ptr());
  EXPECT_EQ(round.features(), m.features());
  EXPECT_EQ(round.values(), m.values());
}

TEST(CscMatrixTest, IncrementalConstruction) {
  CscMatrix c;
  c.set_num_rows(4);
  c.StartColumn();
  c.PushEntry(0, 1.0f);
  c.PushEntry(3, 2.0f);
  c.StartColumn();
  EXPECT_EQ(c.num_cols(), 2u);
  EXPECT_EQ(c.ColumnLength(0), 2u);
  EXPECT_EQ(c.ColumnLength(1), 0u);
}

TEST(SparseMatrixTest, MemoryBytesNonZero) {
  CsrMatrix m = MakeSmall();
  EXPECT_GT(m.MemoryBytes(), 0u);
  EXPECT_GT(m.ToCsc().MemoryBytes(), 0u);
}

class SparseRoundTripTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, double>> {
};

TEST_P(SparseRoundTripTest, CsrCscRoundTripIsIdentity) {
  const auto [rows, cols, density] = GetParam();
  Rng rng(rows * 1000 + cols);
  CsrMatrix m;
  m.set_num_cols(cols);
  for (uint32_t i = 0; i < rows; ++i) {
    m.StartRow();
    for (uint32_t f = 0; f < cols; ++f) {
      if (rng.Bernoulli(density)) {
        m.PushEntry(f, static_cast<float>(rng.NextDouble()));
      }
    }
  }
  const CsrMatrix round = m.ToCsc().ToCsr();
  EXPECT_EQ(round.row_ptr(), m.row_ptr());
  EXPECT_EQ(round.features(), m.features());
  EXPECT_EQ(round.values(), m.values());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseRoundTripTest,
    ::testing::Values(std::make_tuple(1u, 1u, 1.0),
                      std::make_tuple(10u, 5u, 0.5),
                      std::make_tuple(100u, 50u, 0.1),
                      std::make_tuple(50u, 200u, 0.02),
                      std::make_tuple(200u, 3u, 0.9)));

}  // namespace
}  // namespace vero
