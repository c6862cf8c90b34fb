#include "linalg/error_partials.h"

#include <cmath>
#include <cstring>

#include "common/wire.h"
#include "linalg/suffstats.h"

namespace charles {

void ErrorPartials::Accumulate(double y, double y_hat) {
  abs_error_sum += std::abs(y - y_hat);
  ++n;
}

void ErrorPartials::Merge(const ErrorPartials& other) {
  abs_error_sum += other.abs_error_sum;
  n += other.n;
}

void ErrorPartials::SerializeTo(std::string* out) const {
  wire::AppendScalar(out, abs_error_sum);
  wire::AppendScalar(out, n);
}

Result<ErrorPartials> ErrorPartials::Deserialize(const unsigned char** cursor,
                                                 const unsigned char* end) {
  ErrorPartials partials;
  if (!wire::ReadScalar(cursor, end, &partials.abs_error_sum) ||
      !wire::ReadScalar(cursor, end, &partials.n) || partials.n < 0) {
    return Status::IOError("ErrorPartials::Deserialize: truncated input");
  }
  return partials;
}

bool ErrorPartials::BitIdenticalTo(const ErrorPartials& other) const {
  return n == other.n &&
         std::memcmp(&abs_error_sum, &other.abs_error_sum, sizeof(double)) == 0;
}

namespace {

/// The shared fold: per-block partials (each summed in index order from
/// zero) merged left-to-right — the decomposition-invariant computation
/// every executor of a plan replays. `block_sum(base, count)` must return
/// the row-order sum of the block's positional slice [base, base + count).
template <typename BlockSum>
ErrorPartials FoldBlocks(const std::vector<int64_t>& rows, int64_t block_rows,
                         BlockSum&& block_sum) {
  ErrorPartials total;
  const int64_t* data = rows.data();
  ForEachRowBlock(data, static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* block_rows_ptr,
                      int64_t count) {
                    ErrorPartials block_partial;
                    int64_t base = block_rows_ptr - data;
                    block_partial.abs_error_sum = block_sum(base, count);
                    block_partial.n = count;
                    total.Merge(block_partial);
                  });
  return total;
}

}  // namespace

ErrorPartials AccumulateAbsDiffBlocks(const std::vector<double>& a,
                                      const std::vector<double>& b,
                                      const std::vector<int64_t>& rows,
                                      int64_t block_rows) {
  return FoldBlocks(rows, block_rows, [&](int64_t base, int64_t count) {
    double sum = 0.0;
    for (int64_t i = base; i < base + count; ++i) {
      sum += std::abs(a[static_cast<size_t>(i)] - b[static_cast<size_t>(i)]);
    }
    return sum;
  });
}

ErrorPartials AccumulateAbsBlocks(const std::vector<double>& values,
                                  const std::vector<int64_t>& rows,
                                  int64_t block_rows) {
  return FoldBlocks(rows, block_rows, [&](int64_t base, int64_t count) {
    double sum = 0.0;
    for (int64_t i = base; i < base + count; ++i) {
      sum += std::abs(values[static_cast<size_t>(i)]);
    }
    return sum;
  });
}

}  // namespace charles
