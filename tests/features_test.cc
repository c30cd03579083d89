// Unit + property tests for the feature machinery: FeatureSpace,
// SparseVector operations, and the Jaccard similarity measures.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/features.h"

namespace isum::core {
namespace {

TEST(FeatureSpace, InterningIsStable) {
  FeatureSpace space;
  const catalog::ColumnId a{0, 1}, b{0, 2};
  const int ia = space.GetOrCreate(a);
  const int ib = space.GetOrCreate(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(space.GetOrCreate(a), ia);
  EXPECT_EQ(space.Find(a), ia);
  EXPECT_EQ(space.Find(catalog::ColumnId{9, 9}), -1);
  EXPECT_EQ(space.column(ib), b);
  EXPECT_EQ(space.size(), 2u);
}

TEST(SparseVector, FromPairsSortsAndMergesDuplicates) {
  SparseVector v = SparseVector::FromPairs({{3, 1.0}, {1, 2.0}, {3, 0.5}});
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(1), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(3), 1.5);
  EXPECT_DOUBLE_EQ(v.Get(2), 0.0);
}

TEST(SparseVector, SetInsertOverwriteErase) {
  SparseVector v;
  v.Set(5, 1.0);
  v.Set(2, 3.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 1.0);
  v.Set(5, 2.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 2.0);
  v.Set(5, 0.0);
  EXPECT_EQ(v.nnz(), 1u);
}

TEST(SparseVector, AddScaledUnionsSupports) {
  SparseVector a = SparseVector::FromPairs({{1, 1.0}, {3, 2.0}});
  SparseVector b = SparseVector::FromPairs({{2, 5.0}, {3, 1.0}});
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(a.Get(2), 10.0);
  EXPECT_DOUBLE_EQ(a.Get(3), 4.0);
}

TEST(SparseVector, SubtractScaledClampsAtZero) {
  SparseVector a = SparseVector::FromPairs({{1, 1.0}, {2, 5.0}});
  SparseVector b = SparseVector::FromPairs({{1, 10.0}, {2, 1.0}});
  a.SubtractScaledClamped(b, 1.0);
  EXPECT_DOUBLE_EQ(a.Get(1), 0.0);
  EXPECT_DOUBLE_EQ(a.Get(2), 4.0);
}

TEST(SparseVector, SubtractFromAllClamped) {
  SparseVector a = SparseVector::FromPairs({{1, 0.3}, {2, 0.9}});
  a.SubtractFromAllClamped(0.5);
  EXPECT_DOUBLE_EQ(a.Get(1), 0.0);
  EXPECT_NEAR(a.Get(2), 0.4, 1e-12);
}

TEST(SparseVector, ZeroWhereMasksSharedFeatures) {
  SparseVector a = SparseVector::FromPairs({{1, 1.0}, {2, 2.0}, {3, 3.0}});
  SparseVector mask = SparseVector::FromPairs({{2, 0.7}, {4, 1.0}});
  a.ZeroWhere(mask);
  EXPECT_DOUBLE_EQ(a.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(a.Get(2), 0.0);
  EXPECT_DOUBLE_EQ(a.Get(3), 3.0);
  EXPECT_FALSE(a.AllZero());
}

TEST(SparseVector, AllZeroAndPrune) {
  SparseVector a = SparseVector::FromPairs({{1, 1.0}});
  a.Set(1, 0.0);
  EXPECT_TRUE(a.AllZero());
  SparseVector b = SparseVector::FromPairs({{1, 1.0}, {2, 2.0}});
  b.ZeroWhere(SparseVector::FromPairs({{1, 1.0}}));
  EXPECT_EQ(b.nnz(), 2u);  // zeroed entries stay present
  EXPECT_FALSE(b.AllZero());
}

TEST(SparseVector, SumAndMax) {
  SparseVector a = SparseVector::FromPairs({{1, 1.5}, {2, 2.5}});
  EXPECT_DOUBLE_EQ(a.Sum(), 4.0);
  EXPECT_DOUBLE_EQ(SparseVector().Sum(), 0.0);
}

// --- Weighted Jaccard (the paper's similarity, §4.2). ---

TEST(WeightedJaccard, IdenticalVectorsGiveOne) {
  SparseVector a = SparseVector::FromPairs({{1, 0.5}, {7, 1.0}});
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, a), 1.0);
}

TEST(WeightedJaccard, DisjointVectorsGiveZero) {
  SparseVector a = SparseVector::FromPairs({{1, 1.0}});
  SparseVector b = SparseVector::FromPairs({{2, 1.0}});
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b), 0.0);
  EXPECT_DOUBLE_EQ(WeightedJaccard(SparseVector(), SparseVector()), 0.0);
}

TEST(WeightedJaccard, HandComputedExample) {
  SparseVector a = SparseVector::FromPairs({{1, 0.4}, {2, 0.6}});
  SparseVector b = SparseVector::FromPairs({{2, 0.3}, {3, 0.5}});
  // min: 0 + 0.3 + 0 = 0.3; max: 0.4 + 0.6 + 0.5 = 1.5.
  EXPECT_NEAR(WeightedJaccard(a, b), 0.3 / 1.5, 1e-12);
}

// --- Property sweep over random vectors. ---

class JaccardProperties : public ::testing::TestWithParam<uint64_t> {};

SparseVector RandomVector(Rng& rng, int max_features) {
  std::vector<SparseVector::Entry> entries;
  const int nnz = 1 + static_cast<int>(rng.NextUint64(max_features));
  for (int i = 0; i < nnz; ++i) {
    entries.push_back({static_cast<int>(rng.NextUint64(max_features * 2)),
                       rng.NextDouble(0.01, 2.0)});
  }
  return SparseVector::FromPairs(std::move(entries));
}

TEST_P(JaccardProperties, BoundsSymmetryIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    SparseVector a = RandomVector(rng, 20);
    SparseVector b = RandomVector(rng, 20);
    const double sab = WeightedJaccard(a, b);
    EXPECT_GE(sab, 0.0);
    EXPECT_LE(sab, 1.0);
    EXPECT_DOUBLE_EQ(sab, WeightedJaccard(b, a));          // symmetry
    EXPECT_DOUBLE_EQ(WeightedJaccard(a, a), 1.0);          // identity
  }
}

TEST_P(JaccardProperties, ScalingBothPreservesSimilarity) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector a = RandomVector(rng, 16);
    SparseVector b = RandomVector(rng, 16);
    const double before = WeightedJaccard(a, b);
    a.Scale(3.0);
    b.Scale(3.0);
    EXPECT_NEAR(WeightedJaccard(a, b), before, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardProperties,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Batched kernels vs. the SparseVector reference implementations. ---

class BatchKernels : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchKernels, VsDenseMatchesSortedMerge) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    SparseVector q = RandomVector(rng, 24);
    SparseVector row = RandomVector(rng, 24);
    DenseScratch scratch;
    scratch.Scatter(q);
    EXPECT_NEAR(WeightedJaccardVsDense(scratch, row), WeightedJaccard(q, row),
                1e-12);
    // Self-similarity must stay exactly 1 through the dense path.
    scratch.Scatter(row);
    EXPECT_DOUBLE_EQ(WeightedJaccardVsDense(scratch, row), 1.0);
  }
}

TEST_P(BatchKernels, KernelsIgnoreExplicitZeroEntries) {
  Rng rng(GetParam() ^ 0xD00D);
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector q = RandomVector(rng, 16);
    SparseVector row = RandomVector(rng, 16);
    const double expected_w = WeightedJaccard(q, row);
    // ZeroWhere against an empty-support mask keeps weights; Set() the
    // other way: inject explicit zeros into the row.
    SparseVector padded = row;
    padded.AddScaled(q, 0.0);  // adds q's support with weight 0
    DenseScratch scratch;
    scratch.Scatter(q);
    EXPECT_NEAR(WeightedJaccardVsDense(scratch, padded), expected_w, 1e-12);
  }
}

TEST(AddScaledScratch, MatchesAllocatingOverload) {
  Rng rng(99);
  SparseVector a = RandomVector(rng, 20);
  SparseVector b = a;
  std::vector<SparseVector::Entry> scratch;
  for (int i = 0; i < 10; ++i) {
    const SparseVector v = RandomVector(rng, 20);
    const double scale = rng.NextDouble(0.1, 2.0);
    a.AddScaled(v, scale);
    b.AddScaled(v, scale, &scratch);
    ASSERT_EQ(a.nnz(), b.nnz());
    for (size_t e = 0; e < a.nnz(); ++e) {
      EXPECT_EQ(a.entries()[e].feature, b.entries()[e].feature);
      EXPECT_EQ(a.entries()[e].weight, b.entries()[e].weight);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernels,
                         ::testing::Values(7u, 8u, 9u, 10u, 11u));

}  // namespace
}  // namespace isum::core
