// Tests for agg/builtin_kernels and the grouped/partitioned aggregation
// helpers — including the algebraic-aggregation property that partitioned
// execution with ⊕-merge equals a single pass.

#include "agg/builtin_kernels.h"
#include "bench_support/grouped_state.h"
#include "common/rng.h"
#include "engine/exec_options.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using bench::ComputeGroupedState;
using bench::GroupedAccumulateRange;
using testing_util::ExpectClose;

TEST(KernelsTest, IdentityIsNeutralForMerge) {
  for (AggOp op : {AggOp::kSum, AggOp::kProd, AggOp::kMin, AggOp::kMax,
                   AggOp::kCount}) {
    double e = AggIdentity(op);
    EXPECT_DOUBLE_EQ(AggMerge(op, e, 7.5), 7.5) << AggOpName(op);
    EXPECT_DOUBLE_EQ(AggMerge(op, 7.5, e), 7.5) << AggOpName(op);
  }
}

TEST(KernelsTest, MergeIsCommutativeAndAssociative) {
  Rng rng(5);
  for (AggOp op : {AggOp::kSum, AggOp::kProd, AggOp::kMin, AggOp::kMax}) {
    for (int i = 0; i < 50; ++i) {
      double a = rng.NextDoubleIn(-10, 10);
      double b = rng.NextDoubleIn(-10, 10);
      double c = rng.NextDoubleIn(-10, 10);
      ExpectClose(AggMerge(op, a, b), AggMerge(op, b, a));
      ExpectClose(AggMerge(op, AggMerge(op, a, b), c),
                  AggMerge(op, a, AggMerge(op, b, c)), 1e-12);
    }
  }
}

TEST(KernelsTest, GroupedAccumulate) {
  std::vector<double> in = {1, 2, 3, 4, 5};
  std::vector<int32_t> gids = {0, 1, 0, 1, 0};
  std::vector<double> acc(2, AggIdentity(AggOp::kSum));
  GroupedAccumulateRange(AggOp::kSum, in.data(), gids.data(), 0, 5, &acc);
  EXPECT_DOUBLE_EQ(acc[0], 9.0);
  EXPECT_DOUBLE_EQ(acc[1], 6.0);

  std::vector<double> cnt(2, AggIdentity(AggOp::kCount));
  GroupedAccumulateRange(AggOp::kCount, nullptr, gids.data(), 0, 5, &cnt);
  EXPECT_DOUBLE_EQ(cnt[0], 3.0);
  EXPECT_DOUBLE_EQ(cnt[1], 2.0);

  std::vector<double> mx(2, AggIdentity(AggOp::kMax));
  GroupedAccumulateRange(AggOp::kMax, in.data(), gids.data(), 0, 5, &mx);
  EXPECT_DOUBLE_EQ(mx[0], 5.0);
  EXPECT_DOUBLE_EQ(mx[1], 4.0);

  // A sub-range accumulates only its own rows.
  std::vector<double> part(2, AggIdentity(AggOp::kSum));
  GroupedAccumulateRange(AggOp::kSum, in.data(), gids.data(), 1, 4, &part);
  EXPECT_DOUBLE_EQ(part[0], 3.0);
  EXPECT_DOUBLE_EQ(part[1], 6.0);
}

// Property sweep: partitioned execution (partial aggregation + ⊕ merge)
// must equal the single-pass result for every ⊕ and partition count — the
// algebraic-aggregation contract the Spark-like mode relies on.
class PartitionedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<AggOp, int>> {};

TEST_P(PartitionedEquivalenceTest, MatchesSinglePass) {
  const auto [op, partitions] = GetParam();
  Rng rng(42 + partitions);
  const int64_t n = 5000;
  const int32_t groups = 17;
  std::vector<double> in(n);
  std::vector<int32_t> gids(n);
  for (int64_t i = 0; i < n; ++i) {
    // Keep products bounded: values near 1.
    in[i] = 0.9 + 0.2 * rng.NextDouble();
    gids[i] = static_cast<int32_t>(rng.NextBelow(groups));
  }

  ExecOptions serial;
  std::vector<double> expected =
      ComputeGroupedState(op, in, gids, groups, serial);

  ExecOptions partitioned;
  partitioned.partitioned = true;
  partitioned.num_partitions = partitions;
  std::vector<double> actual =
      ComputeGroupedState(op, in, gids, groups, partitioned);

  ASSERT_EQ(actual.size(), expected.size());
  for (int32_t g = 0; g < groups; ++g) {
    ExpectClose(expected[g], actual[g], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAndPartitionCounts, PartitionedEquivalenceTest,
    ::testing::Combine(::testing::Values(AggOp::kSum, AggOp::kProd,
                                         AggOp::kMin, AggOp::kMax,
                                         AggOp::kCount),
                       ::testing::Values(2, 4, 7)));

}  // namespace
}  // namespace sudaf
