#include "table/row_set.h"

#include <gtest/gtest.h>

namespace charles {
namespace {

TEST(RowSetTest, ConstructionSortsAndDedupes) {
  RowSet set({5, 1, 3, 1, 5});
  EXPECT_EQ(set.size(), 3);
  EXPECT_EQ(set.indices(), (std::vector<int64_t>{1, 3, 5}));
}

TEST(RowSetTest, AllAndContains) {
  RowSet all = RowSet::All(4);
  EXPECT_EQ(all.size(), 4);
  EXPECT_TRUE(all.Contains(0));
  EXPECT_TRUE(all.Contains(3));
  EXPECT_FALSE(all.Contains(4));
  EXPECT_FALSE(all.Contains(-1));
}

TEST(RowSetTest, FromMask) {
  RowSet set = RowSet::FromMask({true, false, true, false, true});
  EXPECT_EQ(set.indices(), (std::vector<int64_t>{0, 2, 4}));
}

TEST(RowSetTest, SetAlgebra) {
  RowSet a({1, 2, 3, 4});
  RowSet b({3, 4, 5});
  EXPECT_EQ(a.Intersect(b).indices(), (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(a.Union(b).indices(), (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(a.Difference(b).indices(), (std::vector<int64_t>{1, 2}));
}

TEST(RowSetTest, ComplementPartitions) {
  RowSet a({0, 2});
  RowSet complement = a.Complement(5);
  EXPECT_EQ(complement.indices(), (std::vector<int64_t>{1, 3, 4}));
  EXPECT_EQ(a.Union(complement), RowSet::All(5));
  EXPECT_TRUE(a.Intersect(complement).empty());
}

TEST(RowSetTest, Coverage) {
  EXPECT_DOUBLE_EQ(RowSet({0, 1}).Coverage(8), 0.25);
  EXPECT_DOUBLE_EQ(RowSet().Coverage(8), 0.0);
  EXPECT_DOUBLE_EQ(RowSet({0}).Coverage(0), 0.0);
}

TEST(RowSetTest, EmptyBehaviour) {
  RowSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Union(RowSet({1})).size(), 1);
  EXPECT_TRUE(empty.Intersect(RowSet({1})).empty());
  EXPECT_EQ(RowSet::All(0).size(), 0);
}

TEST(RowSetTest, ToStringTruncates) {
  RowSet set = RowSet::All(100);
  std::string text = set.ToString(4);
  EXPECT_NE(text.find("+96"), std::string::npos);
}

TEST(RowSetTest, PositionsInRangeFindsTheSlice) {
  RowSet set({2, 5, 9, 14, 20});
  auto [lo, hi] = set.PositionsInRange(5, 20);  // half-open: 20 excluded
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 4);
  auto [empty_lo, empty_hi] = set.PositionsInRange(10, 14);
  EXPECT_EQ(empty_lo, empty_hi);
  auto [all_lo, all_hi] = set.PositionsInRange(0, 100);
  EXPECT_EQ(all_lo, 0);
  EXPECT_EQ(all_hi, set.size());
}

TEST(RowSetTest, RestrictMaterializesTheSliceAndAgreesWithIntersect) {
  RowSet set({2, 5, 9, 14, 20});
  EXPECT_EQ(set.Restrict(5, 20), RowSet({5, 9, 14}));
  EXPECT_TRUE(set.Restrict(10, 14).empty());
  EXPECT_EQ(set.Restrict(0, 100), set);
  // Restrict(b, e) is exactly Intersect with the contiguous set [b, e).
  RowSet range({5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19});
  EXPECT_EQ(set.Restrict(5, 20), set.Intersect(range));
}

TEST(RowSetTest, CopySharesStorage) {
  RowSet set({4, 8, 15, 16, 23, 42});
  RowSet copy = set;
  EXPECT_EQ(copy.indices().data(), set.indices().data());
  EXPECT_EQ(copy.hash(), set.hash());
  EXPECT_EQ(copy, set);
}

TEST(RowSetTest, SeparatelyBuiltEqualSetsCompareAndHashEqual) {
  RowSet a({3, 1, 2});
  RowSet b = RowSet::All(4).Difference(RowSet({0}));
  EXPECT_NE(a.indices().data(), b.indices().data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(std::hash<RowSet>{}(a), std::hash<RowSet>{}(b));
  // Same hash bucket or not, different rows never compare equal.
  EXPECT_FALSE(a == RowSet({1, 2, 4}));
}

TEST(RowSetTest, HashIsPinnedFnv1aOverRowWords) {
  // FNV-1a with one 64-bit word per row: h = (h ^ row) * prime from the
  // offset basis. These values key the leaf-fit caches' shard placement, so
  // they must never change.
  EXPECT_EQ(RowSet().hash(), 0xcbf29ce484222325ull);
  EXPECT_EQ(RowSet({0}).hash(), 0xaf63bd4c8601b7dfull);
  EXPECT_EQ(RowSet({1, 2, 3}).hash(), 0xd0aa6218672cf5abull);
  EXPECT_EQ(RowSet::All(5).hash(), 0x3378e3d0c52edfafull);
  EXPECT_EQ(RowSet({7, 1000000007}).hash(), 0xa1ee51662f2e2ff3ull);
}

TEST(RowSetTest, EmptyAndDefaultSetsBehave) {
  RowSet by_default;
  RowSet from_empty_vector(std::vector<int64_t>{});
  RowSet empty_intersection = RowSet({1}).Intersect(RowSet({2}));
  for (const RowSet* set : {&by_default, &from_empty_vector, &empty_intersection}) {
    EXPECT_TRUE(set->empty());
    EXPECT_EQ(set->size(), 0);
    EXPECT_TRUE(set->indices().empty());
    EXPECT_EQ(set->begin(), set->end());
    EXPECT_EQ(set->hash(), by_default.hash());
    EXPECT_EQ(*set, by_default);
    EXPECT_FALSE(set->Contains(0));
    EXPECT_EQ(set->ToString(), "RowSet{}");
  }
  EXPECT_FALSE(by_default == RowSet({0}));
}

TEST(RowSetTest, SetAlgebraResultsOwnFreshStorage) {
  RowSet a({1, 2, 3});
  RowSet all = RowSet::All(4);
  const RowSet results[] = {a.Intersect(all), a.Union(RowSet({2})),
                            a.Difference(RowSet({9})), a.Restrict(0, 10),
                            all.Complement(4).Union(a)};
  for (const RowSet& result : results) {
    EXPECT_EQ(result, a);
    EXPECT_NE(result.indices().data(), a.indices().data());
    EXPECT_NE(result.indices().data(), all.indices().data());
  }
}

}  // namespace
}  // namespace charles
