#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/random.h"

namespace charles {

namespace {

double SquaredDistance(const double* a, const double* b, int64_t d) {
  double sum = 0.0;
  for (int64_t i = 0; i < d; ++i) {
    double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

/// k-means++ initialization: first centroid uniform, subsequent ones sampled
/// proportional to squared distance from the nearest chosen centroid.
Matrix PlusPlusInit(const Matrix& points, int k, Rng* rng) {
  int64_t n = points.rows();
  int64_t d = points.cols();
  Matrix centroids(k, d);
  std::vector<double> min_dist(static_cast<size_t>(n),
                               std::numeric_limits<double>::max());
  int64_t first = rng->UniformInt(0, n - 1);
  for (int64_t c = 0; c < d; ++c) centroids.At(0, c) = points.At(first, c);
  for (int next = 1; next < k; ++next) {
    for (int64_t i = 0; i < n; ++i) {
      double dist = SquaredDistance(points.RowPtr(i), centroids.RowPtr(next - 1), d);
      min_dist[static_cast<size_t>(i)] =
          std::min(min_dist[static_cast<size_t>(i)], dist);
    }
    double total = std::accumulate(min_dist.begin(), min_dist.end(), 0.0);
    int64_t chosen;
    if (total <= 1e-300) {
      chosen = rng->UniformInt(0, n - 1);  // all points identical
    } else {
      chosen = static_cast<int64_t>(rng->WeightedIndex(min_dist));
    }
    for (int64_t c = 0; c < d; ++c) centroids.At(next, c) = points.At(chosen, c);
  }
  return centroids;
}

struct LloydOutcome {
  std::vector<int> labels;
  Matrix centroids;
  double inertia = 0.0;
  int iterations = 0;
};

LloydOutcome RunLloyd(const Matrix& points, int k, Matrix centroids,
                      const KMeansOptions& options, Rng* rng) {
  int64_t n = points.rows();
  int64_t d = points.cols();
  std::vector<int> labels(static_cast<size_t>(n), 0);
  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    // Assignment step.
    for (int64_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_label = 0;
      for (int c = 0; c < k; ++c) {
        double dist = SquaredDistance(points.RowPtr(i), centroids.RowPtr(c), d);
        if (dist < best) {
          best = dist;
          best_label = c;
        }
      }
      labels[static_cast<size_t>(i)] = best_label;
    }
    // Update step.
    Matrix new_centroids(k, d);
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (int64_t i = 0; i < n; ++i) {
      int label = labels[static_cast<size_t>(i)];
      ++counts[static_cast<size_t>(label)];
      for (int64_t c = 0; c < d; ++c) new_centroids.At(label, c) += points.At(i, c);
    }
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) {
        // Empty cluster: re-seed at a random point (deterministic under seed).
        int64_t replacement = rng->UniformInt(0, n - 1);
        for (int64_t col = 0; col < d; ++col) {
          new_centroids.At(c, col) = points.At(replacement, col);
        }
      } else {
        for (int64_t col = 0; col < d; ++col) {
          new_centroids.At(c, col) /= static_cast<double>(counts[static_cast<size_t>(c)]);
        }
      }
    }
    // Convergence: total squared centroid movement.
    double movement = 0.0;
    for (int c = 0; c < k; ++c) {
      movement += SquaredDistance(centroids.RowPtr(c), new_centroids.RowPtr(c), d);
    }
    centroids = std::move(new_centroids);
    if (movement <= options.tolerance) {
      ++iteration;
      break;
    }
  }
  double inertia = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    inertia += SquaredDistance(points.RowPtr(i),
                               centroids.RowPtr(labels[static_cast<size_t>(i)]), d);
  }
  return LloydOutcome{std::move(labels), std::move(centroids), inertia, iteration};
}

Status CheckPoints(const Matrix& points) {
  if (points.rows() == 0) return Status::InvalidArgument("KMeans: no points");
  for (int64_t r = 0; r < points.rows(); ++r) {
    for (int64_t c = 0; c < points.cols(); ++c) {
      if (!std::isfinite(points.At(r, c))) {
        return Status::InvalidArgument("KMeans: non-finite point at row " +
                                       std::to_string(r));
      }
    }
  }
  return Status::OK();
}

/// The sorted distinct values of a finite 1-D input, in a frame where every
/// squared sum is finite: x' = x * 2^-exponent - shift. The power-of-two
/// scale bounds |x * 2^-exponent| below 1 without rounding, so scaling the
/// input by 2^a shifts `exponent` by a and leaves every other field
/// bit-identical (unless values far below the largest underflow).
struct SortedValues {
  /// Framed distinct values, ascending, and how many rows hold each.
  std::vector<double> values;
  std::vector<double> weights;
  /// Index into `values` of each input row.
  std::vector<int64_t> distinct_of_row;
  int exponent = 0;
  double shift = 0.0;
};

SortedValues SortDistinct(const Matrix& points) {
  const int64_t n = points.rows();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return points.At(a, 0) < points.At(b, 0);
  });
  double max_abs = std::max(std::abs(points.At(order.front(), 0)),
                            std::abs(points.At(order.back(), 0)));

  SortedValues out;
  out.exponent = max_abs > 0.0 ? std::ilogb(max_abs) + 1 : 0;
  // Centring on the median keeps the prefix sums small, which limits
  // cancellation when Sse subtracts two of them.
  out.shift = std::ldexp(points.At(order[static_cast<size_t>(n / 2)], 0), -out.exponent);
  out.distinct_of_row.resize(static_cast<size_t>(n));
  for (size_t p = 0; p < order.size(); ++p) {
    double x = points.At(order[p], 0);
    if (p == 0 || x != points.At(order[p - 1], 0)) {
      out.values.push_back(std::ldexp(x, -out.exponent) - out.shift);
      out.weights.push_back(0.0);
    }
    out.weights.back() += 1.0;
    out.distinct_of_row[static_cast<size_t>(order[p])] =
        static_cast<int64_t>(out.values.size()) - 1;
  }
  return out;
}

/// Within-cluster sum of squares of any run of sorted distinct values, in
/// O(1) from prefix sums of w, w*x and w*x^2.
class IntervalCosts {
 public:
  explicit IntervalCosts(const SortedValues& sorted) {
    size_t m = sorted.values.size();
    w_.assign(m + 1, 0.0);
    wx_.assign(m + 1, 0.0);
    wxx_.assign(m + 1, 0.0);
    for (size_t j = 0; j < m; ++j) {
      double w = sorted.weights[j];
      double x = sorted.values[j];
      w_[j + 1] = w_[j] + w;
      wx_[j + 1] = wx_[j] + w * x;
      wxx_[j + 1] = wxx_[j] + w * x * x;
    }
  }

  /// SSE of distinct values [i, j], both inclusive.
  double Sse(int64_t i, int64_t j) const {
    double w = w_[static_cast<size_t>(j + 1)] - w_[static_cast<size_t>(i)];
    double wx = wx_[static_cast<size_t>(j + 1)] - wx_[static_cast<size_t>(i)];
    double wxx = wxx_[static_cast<size_t>(j + 1)] - wxx_[static_cast<size_t>(i)];
    return std::max(0.0, wxx - wx * wx / w);
  }

  /// Weighted mean of distinct values [i, j].
  double Mean(int64_t i, int64_t j) const {
    return (wx_[static_cast<size_t>(j + 1)] - wx_[static_cast<size_t>(i)]) /
           (w_[static_cast<size_t>(j + 1)] - w_[static_cast<size_t>(i)]);
  }

 private:
  std::vector<double> w_, wx_, wxx_;
};

/// One layer of the SSE dynamic program: cost[j] is the least SSE of
/// distinct values [0, j] in the layer's number of groups, and split[j] the
/// first value of the last group; prev_cost is the layer with one group
/// fewer. The optimal split is monotone in j, so each middle j
/// narrows the split range of the two halves around it.
struct LayerFiller {
  const IntervalCosts& costs;
  const std::vector<double>& prev_cost;
  std::vector<double>& cost;
  std::vector<int64_t>& split;

  void Fill(int64_t j_lo, int64_t j_hi, int64_t i_lo, int64_t i_hi) {
    if (j_lo > j_hi) return;
    int64_t j = j_lo + (j_hi - j_lo) / 2;
    int64_t best_i = i_lo;
    double best = std::numeric_limits<double>::infinity();
    for (int64_t i = i_lo; i <= std::min(j, i_hi); ++i) {
      double c = prev_cost[static_cast<size_t>(i - 1)] + costs.Sse(i, j);
      if (c < best) {  // strict: ties keep the earliest split
        best = c;
        best_i = i;
      }
    }
    cost[static_cast<size_t>(j)] = best;
    split[static_cast<size_t>(j)] = best_i;
    Fill(j_lo, j - 1, i_lo, best_i);
    Fill(j + 1, j_hi, best_i, i_hi);
  }
};

/// FitAllK on validated input.
std::vector<KMeansResult> ExactLayers(const Matrix& points, int max_k) {
  SortedValues sorted = SortDistinct(points);
  IntervalCosts costs(sorted);
  const int64_t m = static_cast<int64_t>(sorted.values.size());
  const int layers = static_cast<int>(std::min<int64_t>(max_k, m));

  // splits[l] is layer l's split table (l + 1 clusters); layer 0 has none.
  std::vector<std::vector<int64_t>> splits(static_cast<size_t>(layers));
  std::vector<double> prev_cost(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) prev_cost[static_cast<size_t>(j)] = costs.Sse(0, j);
  std::vector<double> cost(static_cast<size_t>(m));
  for (int l = 1; l < layers; ++l) {
    std::vector<int64_t>& split = splits[static_cast<size_t>(l)];
    split.assign(static_cast<size_t>(m), 0);
    LayerFiller{costs, prev_cost, cost, split}.Fill(l, m - 1, l, m - 1);
    std::swap(prev_cost, cost);
  }

  std::vector<KMeansResult> out(static_cast<size_t>(layers));
  std::vector<int> cluster_of(static_cast<size_t>(m));
  for (int l = 0; l < layers; ++l) {
    KMeansResult& result = out[static_cast<size_t>(l)];
    result.k = l + 1;
    result.centroids = Matrix(l + 1, 1);
    double sse = 0.0;
    int64_t j = m - 1;
    for (int c = l; c >= 0; --c) {
      int64_t i = c == 0 ? 0 : splits[static_cast<size_t>(c)][static_cast<size_t>(j)];
      double mean = costs.Mean(i, j);
      for (int64_t t = i; t <= j; ++t) {
        cluster_of[static_cast<size_t>(t)] = c;
        double diff = sorted.values[static_cast<size_t>(t)] - mean;
        sse += sorted.weights[static_cast<size_t>(t)] * diff * diff;
      }
      result.centroids.At(c, 0) = std::ldexp(mean + sorted.shift, sorted.exponent);
      j = i - 1;
    }
    result.inertia = std::ldexp(sse, 2 * sorted.exponent);
    result.labels.resize(sorted.distinct_of_row.size());
    for (size_t r = 0; r < result.labels.size(); ++r) {
      result.labels[r] = cluster_of[static_cast<size_t>(sorted.distinct_of_row[r])];
    }
  }
  return out;
}

}  // namespace

Result<KMeansResult> KMeans::Fit(const Matrix& points, int k, const KMeansOptions& options) {
  CHARLES_RETURN_NOT_OK(CheckPoints(points));
  int64_t n = points.rows();
  if (k < 1 || k > n) {
    return Status::InvalidArgument("KMeans: k=" + std::to_string(k) +
                                   " outside [1, " + std::to_string(n) + "]");
  }
  if (points.cols() == 1) return std::move(ExactLayers(points, k).back());

  Rng rng(options.seed);
  LloydOutcome best;
  best.inertia = std::numeric_limits<double>::max();
  int restarts = std::max(1, options.num_restarts);
  for (int r = 0; r < restarts; ++r) {
    Matrix init = PlusPlusInit(points, k, &rng);
    LloydOutcome outcome = RunLloyd(points, k, std::move(init), options, &rng);
    if (outcome.inertia < best.inertia) best = std::move(outcome);
  }
  KMeansResult result;
  result.k = k;
  result.labels = std::move(best.labels);
  result.centroids = std::move(best.centroids);
  result.inertia = best.inertia;
  result.iterations = best.iterations;
  return result;
}

Result<std::vector<KMeansResult>> KMeans::FitAllK(const Matrix& points, int max_k) {
  if (points.cols() != 1) {
    return Status::InvalidArgument("KMeans::FitAllK: points must have one column, got " +
                                   std::to_string(points.cols()));
  }
  if (max_k < 1) {
    return Status::InvalidArgument("KMeans::FitAllK: max_k=" + std::to_string(max_k) +
                                   " below 1");
  }
  CHARLES_RETURN_NOT_OK(CheckPoints(points));
  return ExactLayers(points, max_k);
}

}  // namespace charles
