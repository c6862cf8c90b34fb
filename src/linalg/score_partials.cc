#include "linalg/score_partials.h"

#include <cmath>
#include <cstring>

#include "common/wire.h"
#include "linalg/suffstats.h"

namespace charles {

void ScorePartials::Accumulate(double y, double y_hat, double tolerance) {
  const double err = std::abs(y - y_hat);
  abs_error_sum += err;
  if (err <= tolerance) ++exact_count;
  ++n;
}

void ScorePartials::Merge(const ScorePartials& other) {
  abs_error_sum += other.abs_error_sum;
  exact_count += other.exact_count;
  n += other.n;
}

void ScorePartials::SerializeTo(std::string* out) const {
  wire::AppendScalar(out, abs_error_sum);
  wire::AppendScalar(out, exact_count);
  wire::AppendScalar(out, n);
}

Result<ScorePartials> ScorePartials::Deserialize(const unsigned char** cursor,
                                                 const unsigned char* end) {
  ScorePartials partials;
  if (!wire::ReadScalar(cursor, end, &partials.abs_error_sum) ||
      !wire::ReadScalar(cursor, end, &partials.exact_count) ||
      !wire::ReadScalar(cursor, end, &partials.n) || partials.n < 0 ||
      partials.exact_count < 0 || partials.exact_count > partials.n) {
    return Status::IOError("ScorePartials::Deserialize: truncated input");
  }
  return partials;
}

bool ScorePartials::BitIdenticalTo(const ScorePartials& other) const {
  return n == other.n && exact_count == other.exact_count &&
         std::memcmp(&abs_error_sum, &other.abs_error_sum, sizeof(double)) == 0;
}

ScorePartials AccumulateScoreDiffBlocks(const std::vector<double>& a,
                                        const std::vector<double>& b,
                                        const std::vector<int64_t>& rows,
                                        int64_t block_rows, double tolerance) {
  // Per-block partials, each folded in row order from zero, merged
  // left-to-right — error_partials.cc's decomposition-invariant shape with
  // the exact count carried alongside the sum. The sum chain is
  // AccumulateAbsDiffBlocks' exactly.
  ScorePartials total;
  const int64_t* data = rows.data();
  ForEachRowBlock(data, static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* block_rows_ptr,
                      int64_t count) {
                    ScorePartials block_partial;
                    const size_t base = static_cast<size_t>(block_rows_ptr - data);
                    for (size_t i = base; i < base + static_cast<size_t>(count); ++i) {
                      block_partial.Accumulate(a[i], b[i], tolerance);
                    }
                    total.Merge(block_partial);
                  });
  return total;
}

}  // namespace charles
