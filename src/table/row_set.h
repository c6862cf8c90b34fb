#ifndef CHARLES_TABLE_ROW_SET_H_
#define CHARLES_TABLE_ROW_SET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv.h"

namespace charles {

/// \brief An immutable, shared, ordered set of row indices into a Table.
///
/// RowSet is how ChARLES represents data partitions: filters produce them,
/// Table::Take materializes them, and partition coverage is their size
/// relative to the table. Indices are kept sorted and unique.
///
/// A RowSet is a handle: copying one bumps a reference count and shares the
/// indices (O(1), safe across threads), so a partition leaf, the CTs fitted
/// on it and every cache key naming it hold one allocation between them.
/// The FNV-1a hash of the indices is computed once, when the set is built;
/// equality compares storage identity, then the hash, then the indices.
class RowSet {
 public:
  /// The empty set (allocates nothing).
  RowSet() = default;

  /// Takes ownership of indices; sorts and deduplicates them.
  explicit RowSet(std::vector<int64_t> indices);

  /// The full set {0, ..., n-1}.
  static RowSet All(int64_t n);

  /// Rows where mask[i] is true.
  static RowSet FromMask(const std::vector<bool>& mask);

  int64_t size() const { return static_cast<int64_t>(indices().size()); }
  bool empty() const { return indices().empty(); }
  int64_t operator[](int64_t i) const { return indices()[static_cast<size_t>(i)]; }
  const std::vector<int64_t>& indices() const {
    return rep_ != nullptr ? rep_->indices : EmptyIndices();
  }

  /// FNV-1a over the indices, one 64-bit word per row (offset basis for the
  /// empty set); computed once at construction.
  uint64_t hash() const { return rep_ != nullptr ? rep_->hash : kFnvOffsetBasis; }

  bool Contains(int64_t row) const;

  /// Set algebra; operands may index the same table. Results own fresh
  /// storage.
  RowSet Intersect(const RowSet& other) const;
  RowSet Union(const RowSet& other) const;
  /// Rows of this set absent from `other`.
  RowSet Difference(const RowSet& other) const;
  /// {0..n-1} minus this set.
  RowSet Complement(int64_t n) const;

  /// Fraction of an n-row table covered by this set.
  double Coverage(int64_t n) const;

  /// \name Row-range views (shard execution).
  /// Indices are sorted, so both are O(log n) binary searches (plus the
  /// copy, for Restrict).
  /// @{
  /// Positions [lo, hi) into indices() of the rows in [begin, end) — the
  /// zero-copy form the shard kernel scans with.
  std::pair<int64_t, int64_t> PositionsInRange(int64_t begin, int64_t end) const;
  /// The subset of this set falling in the half-open row range [begin, end),
  /// materialized — the set-algebra companion for callers that need an
  /// owning RowSet (e.g. shipping a leaf slice to a remote executor).
  RowSet Restrict(int64_t begin, int64_t end) const;
  /// @}

  bool operator==(const RowSet& other) const {
    if (rep_ == other.rep_) return true;
    return hash() == other.hash() && indices() == other.indices();
  }

  std::string ToString(int64_t max_items = 16) const;

  auto begin() const { return indices().begin(); }
  auto end() const { return indices().end(); }

 private:
  struct Rep {
    std::vector<int64_t> indices;
    uint64_t hash;
  };

  /// Wraps indices that are already sorted and unique; hashes them once.
  static RowSet FromSorted(std::vector<int64_t> sorted);
  static const std::vector<int64_t>& EmptyIndices();

  std::shared_ptr<const Rep> rep_;  ///< Null for the empty set.
};

}  // namespace charles

/// Hashes a RowSet by its precomputed hash(), so row-keyed maps never rescan
/// the indices.
namespace std {
template <>
struct hash<charles::RowSet> {
  size_t operator()(const charles::RowSet& rows) const {
    return static_cast<size_t>(rows.hash());
  }
};
}  // namespace std

#endif  // CHARLES_TABLE_ROW_SET_H_
