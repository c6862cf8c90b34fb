#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.h"

namespace charles {
namespace {

/// n points per centre, tightly grouped around the given 1-D centres.
Matrix MakeBlobs(const std::vector<double>& centres, int per_centre, double spread,
                 uint64_t seed) {
  Rng rng(seed);
  Matrix points(static_cast<int64_t>(centres.size()) * per_centre, 1);
  int64_t row = 0;
  for (double centre : centres) {
    for (int i = 0; i < per_centre; ++i) {
      points.At(row++, 0) = centre + rng.Normal(0, spread);
    }
  }
  return points;
}

TEST(KMeansTest, SeparatesWellSpacedBlobs) {
  Matrix points = MakeBlobs({0.0, 100.0, 200.0}, 20, 1.0, 1);
  KMeansResult result = KMeans::Fit(points, 3).ValueOrDie();
  // Each blob must map to exactly one cluster.
  for (int blob = 0; blob < 3; ++blob) {
    std::set<int> labels;
    for (int i = 0; i < 20; ++i) labels.insert(result.labels[blob * 20 + i]);
    EXPECT_EQ(labels.size(), 1u) << "blob " << blob << " split across clusters";
  }
  EXPECT_LT(result.inertia, 3 * 20 * 9.0);  // within ~3 sigma per point
}

TEST(KMeansTest, KEqualsOneGivesSingleCluster) {
  Matrix points = MakeBlobs({0.0, 50.0}, 10, 1.0, 2);
  KMeansResult result = KMeans::Fit(points, 1).ValueOrDie();
  for (int label : result.labels) EXPECT_EQ(label, 0);
  EXPECT_EQ(result.centroids.rows(), 1);
}

TEST(KMeansTest, KEqualsNPutsEachPointAlone) {
  Matrix points = Matrix::FromRows({{0}, {10}, {20}});
  KMeansResult result = KMeans::Fit(points, 3).ValueOrDie();
  std::set<int> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, DeterministicUnderSeed) {
  Matrix points = MakeBlobs({0.0, 30.0, 90.0}, 15, 2.0, 3);
  KMeansOptions options;
  options.seed = 777;
  KMeansResult a = KMeans::Fit(points, 3, options).ValueOrDie();
  KMeansResult b = KMeans::Fit(points, 3, options).ValueOrDie();
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, InputValidation) {
  Matrix points = Matrix::FromRows({{1}, {2}});
  EXPECT_TRUE(KMeans::Fit(points, 0).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans::Fit(points, 3).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans::Fit(Matrix(0, 1), 1).status().IsInvalidArgument());
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  Matrix points(10, 1, 5.0);
  KMeansResult result = KMeans::Fit(points, 3).ValueOrDie();
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, MultiDimensionalPoints) {
  Rng rng(5);
  Matrix points(40, 2);
  for (int i = 0; i < 20; ++i) {
    points.At(i, 0) = rng.Normal(0, 1);
    points.At(i, 1) = rng.Normal(0, 1);
    points.At(20 + i, 0) = rng.Normal(50, 1);
    points.At(20 + i, 1) = rng.Normal(50, 1);
  }
  KMeansResult result = KMeans::Fit(points, 2).ValueOrDie();
  EXPECT_NE(result.labels[0], result.labels[39]);
}

/// n values drawn from a small grid, so duplicates are common.
Matrix MakeGridValues(int64_t n, int grid, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    points.At(i, 0) = static_cast<double>(rng.UniformInt(0, grid)) * 0.5 - 3.0;
  }
  return points;
}

/// Within-group SSE, two-pass, of the contiguous groups of `sorted` that
/// start at each index in `starts`.
double IntervalPartitionSse(const std::vector<double>& sorted,
                            const std::vector<size_t>& starts) {
  double total = 0.0;
  for (size_t g = 0; g < starts.size(); ++g) {
    size_t begin = starts[g];
    size_t end = g + 1 < starts.size() ? starts[g + 1] : sorted.size();
    double mean = 0.0;
    for (size_t i = begin; i < end; ++i) mean += sorted[i];
    mean /= static_cast<double>(end - begin);
    for (size_t i = begin; i < end; ++i) total += (sorted[i] - mean) * (sorted[i] - mean);
  }
  return total;
}

/// Least SSE over every partition of the sorted rows into at most k
/// contiguous groups, by enumerating the cut sets.
double BruteForceInertia(const Matrix& points, int k) {
  std::vector<double> sorted(static_cast<size_t>(points.rows()));
  for (int64_t i = 0; i < points.rows(); ++i) sorted[static_cast<size_t>(i)] = points.At(i, 0);
  std::sort(sorted.begin(), sorted.end());
  const size_t gaps = sorted.size() - 1;
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t cuts = 0; cuts < (1u << gaps); ++cuts) {
    std::vector<size_t> starts = {0};
    for (size_t g = 0; g < gaps; ++g) {
      if ((cuts >> g) & 1u) starts.push_back(g + 1);
    }
    if (starts.size() > static_cast<size_t>(k)) continue;
    best = std::min(best, IntervalPartitionSse(sorted, starts));
  }
  return best;
}

TEST(KMeansTest, ExactInertiaMatchesBruteForceOverIntervalPartitions) {
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    int64_t n = rng.UniformInt(1, 9);
    Matrix points(n, 1);
    for (int64_t i = 0; i < n; ++i) {
      // Every third trial draws from a coarse grid to force duplicates.
      points.At(i, 0) = trial % 3 == 0 ? static_cast<double>(rng.UniformInt(0, 3))
                                       : rng.Normal(0.0, 10.0);
    }
    for (int k = 1; k <= std::min<int64_t>(4, n); ++k) {
      KMeansResult result = KMeans::Fit(points, k).ValueOrDie();
      double brute = BruteForceInertia(points, k);
      EXPECT_NEAR(result.inertia, brute, 1e-9 * (1.0 + brute))
          << "trial " << trial << " n=" << n << " k=" << k;
    }
  }
}

TEST(KMeansTest, EqualValuesNeverStraddleClusters) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Matrix points = MakeGridValues(60, 6, seed);
    std::vector<KMeansResult> layers = KMeans::FitAllK(points, 6).ValueOrDie();
    for (const KMeansResult& layer : layers) {
      std::map<double, int> label_of_value;
      for (int64_t i = 0; i < points.rows(); ++i) {
        auto inserted = label_of_value.emplace(points.At(i, 0),
                                               layer.labels[static_cast<size_t>(i)]);
        EXPECT_EQ(inserted.first->second, layer.labels[static_cast<size_t>(i)])
            << "value " << points.At(i, 0) << " split at k=" << layer.k;
      }
    }
  }
}

TEST(KMeansTest, KAboveDistinctCountUsesOnlyDistinctClusters) {
  Matrix points = Matrix::FromRows({{3}, {7}, {3}, {7}, {7}});
  KMeansResult result = KMeans::Fit(points, 4).ValueOrDie();
  EXPECT_EQ(result.k, 2);
  EXPECT_EQ(result.labels, (std::vector<int>{0, 1, 0, 1, 1}));
  EXPECT_EQ(result.centroids.rows(), 2);
  EXPECT_DOUBLE_EQ(result.inertia, 0.0);
  EXPECT_EQ(KMeans::FitAllK(points, 6).ValueOrDie().size(), 2u);
}

TEST(KMeansTest, RowPermutationOnlyPermutesLabels) {
  Matrix points = MakeBlobs({-5.0, 0.0, 4.0, 30.0}, 30, 2.0, 4);
  Matrix grid = MakeGridValues(40, 8, 5);
  for (const Matrix* base : {&points, &grid}) {
    std::vector<int64_t> perm(static_cast<size_t>(base->rows()));
    std::iota(perm.begin(), perm.end(), int64_t{0});
    Rng rng(6);
    rng.Shuffle(&perm);
    Matrix permuted(base->rows(), 1);
    for (size_t i = 0; i < perm.size(); ++i) {
      permuted.At(static_cast<int64_t>(i), 0) = base->At(perm[i], 0);
    }
    std::vector<KMeansResult> a = KMeans::FitAllK(*base, 6).ValueOrDie();
    std::vector<KMeansResult> b = KMeans::FitAllK(permuted, 6).ValueOrDie();
    ASSERT_EQ(a.size(), b.size());
    for (size_t l = 0; l < a.size(); ++l) {
      for (size_t i = 0; i < perm.size(); ++i) {
        EXPECT_EQ(b[l].labels[i], a[l].labels[static_cast<size_t>(perm[i])]);
      }
      EXPECT_EQ(b[l].inertia, a[l].inertia);
    }
  }
}

TEST(KMeansTest, PowerOfTwoScalingKeepsLabelsBitIdentical) {
  Matrix unit = MakeBlobs({-1.0, 0.2, 0.3, 1.5}, 25, 0.3, 9);
  // Magnitudes near 1e308, the top of the double range: naive prefix sums of x^2
  // would overflow to inf and cost differences would be inf - inf.
  Matrix huge(unit.rows(), 1);
  for (int64_t i = 0; i < unit.rows(); ++i) huge.At(i, 0) = unit.At(i, 0) * 5e307;
  for (const Matrix* base : {&unit, &huge}) {
    std::vector<KMeansResult> reference = KMeans::FitAllK(*base, 6).ValueOrDie();
    for (int power : {-40, 40}) {
      if (base == &huge && power > 0) continue;  // would overflow the input
      Matrix scaled(base->rows(), 1);
      for (int64_t i = 0; i < base->rows(); ++i) {
        scaled.At(i, 0) = std::ldexp(base->At(i, 0), power);
      }
      std::vector<KMeansResult> layers = KMeans::FitAllK(scaled, 6).ValueOrDie();
      ASSERT_EQ(layers.size(), reference.size());
      for (size_t l = 0; l < layers.size(); ++l) {
        EXPECT_EQ(layers[l].labels, reference[l].labels) << "2^" << power << " k=" << l + 1;
      }
    }
    for (const KMeansResult& layer : reference) {
      for (int c = 0; c < layer.k; ++c) EXPECT_TRUE(std::isfinite(layer.centroids.At(c, 0)));
    }
  }
  // At 1e308 the four blobs still come apart exactly as at unit scale.
  std::vector<KMeansResult> huge_layers = KMeans::FitAllK(huge, 4).ValueOrDie();
  std::vector<KMeansResult> unit_layers = KMeans::FitAllK(unit, 4).ValueOrDie();
  EXPECT_EQ(huge_layers[3].labels, unit_layers[3].labels);
}

TEST(KMeansTest, FitAllKLayerKEqualsFit) {
  Matrix points = MakeBlobs({0.0, 10.0, 12.0, 40.0}, 20, 3.0, 10);
  std::vector<KMeansResult> layers = KMeans::FitAllK(points, 6).ValueOrDie();
  ASSERT_EQ(layers.size(), 6u);
  for (int k = 1; k <= 6; ++k) {
    KMeansResult fit = KMeans::Fit(points, k).ValueOrDie();
    const KMeansResult& layer = layers[static_cast<size_t>(k - 1)];
    EXPECT_EQ(layer.k, k);
    EXPECT_EQ(fit.labels, layer.labels);
    EXPECT_EQ(fit.inertia, layer.inertia);
    for (int c = 0; c < k; ++c) EXPECT_EQ(fit.centroids.At(c, 0), layer.centroids.At(c, 0));
  }
  // Inertia never rises with k.
  for (size_t l = 1; l < layers.size(); ++l) {
    EXPECT_LE(layers[l].inertia, layers[l - 1].inertia);
  }
}

TEST(KMeansTest, RejectsNonFinitePoints) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix column = Matrix::FromRows({{1}, {bad}, {2}});
    EXPECT_TRUE(KMeans::Fit(column, 2).status().IsInvalidArgument());
    EXPECT_TRUE(KMeans::FitAllK(column, 2).status().IsInvalidArgument());
    Matrix wide = Matrix::FromRows({{1, 0}, {2, bad}, {3, 1}});
    EXPECT_TRUE(KMeans::Fit(wide, 2).status().IsInvalidArgument());
  }
}

TEST(KMeansTest, FitAllKInputValidation) {
  EXPECT_TRUE(KMeans::FitAllK(Matrix(0, 1), 2).status().IsInvalidArgument());
  EXPECT_TRUE(KMeans::FitAllK(Matrix(3, 2), 2).status().IsInvalidArgument());
  EXPECT_TRUE(
      KMeans::FitAllK(Matrix::FromRows({{1}, {2}}), 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace charles
