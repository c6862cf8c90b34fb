#ifndef CHARLES_ML_KMEANS_H_
#define CHARLES_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace charles {

/// \brief Options for the multi-column (Lloyd) path of KMeans::Fit.
///
/// One-column inputs are clustered exactly and deterministically, so none
/// of these fields affects them.
struct KMeansOptions {
  /// Lloyd iterations per restart.
  int max_iterations = 100;
  /// Independent k-means++ restarts; the lowest-inertia run wins.
  int num_restarts = 4;
  /// Convergence threshold on centroid movement (squared L2).
  double tolerance = 1e-8;
  /// Seed for k-means++ sampling; same seed, same clustering.
  uint64_t seed = 42;
};

/// \brief A clustering of n points into k groups.
struct KMeansResult {
  /// Number of clusters used. The exact 1-D path uses fewer than requested
  /// when the points have fewer distinct values.
  int k = 0;
  /// Cluster id per input row, in [0, k). On the 1-D path, ids follow the
  /// order of the values: cluster 0 holds the smallest.
  std::vector<int> labels;
  /// k x d centroid matrix.
  Matrix centroids;
  /// Sum of squared distances to assigned centroids (lower is tighter).
  double inertia = 0.0;
  /// Lloyd iterations of the winning restart; 0 on the exact 1-D path.
  int iterations = 0;
};

/// \brief k-means clustering: exact optimal on one column, Lloyd otherwise.
///
/// ChARLES clusters rows by one-column change signals (distance from the
/// global regression line, raw and relative deltas). In 1-D an optimal
/// clustering is a partition of the sorted values into contiguous intervals,
/// so FitAllK finds it by dynamic programming (Wang & Song 2011,
/// Ckmeans.1d.dp) with no RNG, restarts or iteration cap. Multi-column
/// input falls back to Lloyd's algorithm with k-means++ seeding and
/// empty-cluster repair.
class KMeans {
 public:
  /// Clusters the rows of `points` into k groups. k must be in [1, n], and
  /// every point must be finite. A one-column input returns layer k of
  /// FitAllK (fewer clusters when there are fewer distinct values);
  /// `options` governs only the multi-column Lloyd path.
  static Result<KMeansResult> Fit(const Matrix& points, int k,
                                  const KMeansOptions& options = {});

  /// Exact optimal 1-D k-means for every k = 1..max_k from one sort and one
  /// dynamic-programming table. `points` must be n x 1, non-empty and
  /// finite, and max_k >= 1. Element k-1 is the minimum-inertia
  /// k-clustering; the vector stops at min(max_k, distinct values). Equal
  /// values always share a cluster, and ties between equally good splits
  /// go to the earliest split point.
  static Result<std::vector<KMeansResult>> FitAllK(const Matrix& points, int max_k);
};

}  // namespace charles

#endif  // CHARLES_ML_KMEANS_H_
