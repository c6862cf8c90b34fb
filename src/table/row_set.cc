#include "table/row_set.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace charles {

RowSet::RowSet(std::vector<int64_t> indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  *this = FromSorted(std::move(indices));
}

RowSet RowSet::FromSorted(std::vector<int64_t> sorted) {
  RowSet set;
  if (sorted.empty()) return set;
  uint64_t h = kFnvOffsetBasis;
  for (int64_t r : sorted) h = (h ^ static_cast<uint64_t>(r)) * kFnvPrime;
  set.rep_ = std::make_shared<const Rep>(Rep{std::move(sorted), h});
  return set;
}

const std::vector<int64_t>& RowSet::EmptyIndices() {
  static const std::vector<int64_t> empty;
  return empty;
}

RowSet RowSet::All(int64_t n) {
  CHARLES_CHECK_GE(n, 0);
  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  return FromSorted(std::move(rows));
}

RowSet RowSet::FromMask(const std::vector<bool>& mask) {
  std::vector<int64_t> rows;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) rows.push_back(static_cast<int64_t>(i));
  }
  return FromSorted(std::move(rows));
}

bool RowSet::Contains(int64_t row) const {
  return std::binary_search(begin(), end(), row);
}

RowSet RowSet::Intersect(const RowSet& other) const {
  std::vector<int64_t> out;
  std::set_intersection(begin(), end(), other.begin(), other.end(),
                        std::back_inserter(out));
  return FromSorted(std::move(out));
}

RowSet RowSet::Union(const RowSet& other) const {
  std::vector<int64_t> out;
  std::set_union(begin(), end(), other.begin(), other.end(), std::back_inserter(out));
  return FromSorted(std::move(out));
}

RowSet RowSet::Difference(const RowSet& other) const {
  std::vector<int64_t> out;
  std::set_difference(begin(), end(), other.begin(), other.end(),
                      std::back_inserter(out));
  return FromSorted(std::move(out));
}

RowSet RowSet::Complement(int64_t n) const { return All(n).Difference(*this); }

std::pair<int64_t, int64_t> RowSet::PositionsInRange(int64_t begin,
                                                     int64_t end) const {
  const std::vector<int64_t>& rows = indices();
  auto lo = std::lower_bound(rows.begin(), rows.end(), begin);
  auto hi = std::lower_bound(lo, rows.end(), end);
  return {lo - rows.begin(), hi - rows.begin()};
}

RowSet RowSet::Restrict(int64_t begin, int64_t end) const {
  auto [lo, hi] = PositionsInRange(begin, end);
  const std::vector<int64_t>& rows = indices();
  return FromSorted(std::vector<int64_t>(rows.begin() + lo, rows.begin() + hi));
}

double RowSet::Coverage(int64_t n) const {
  if (n <= 0) return 0.0;
  return static_cast<double>(size()) / static_cast<double>(n);
}

std::string RowSet::ToString(int64_t max_items) const {
  std::string out = "RowSet{";
  int64_t shown = std::min<int64_t>(size(), max_items);
  for (int64_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string((*this)[i]);
  }
  if (shown < size()) out += ", ... +" + std::to_string(size() - shown);
  out += "}";
  return out;
}

}  // namespace charles
