/// \file
/// Block-fold parity harness: the canonical block folds (linalg/suffstats.h,
/// linalg/error_partials.h, linalg/score_partials.h) and the shard task
/// kernel (ExecuteShardTaskKernel) must reproduce, bit for bit, the
/// computation the determinism contract defines — fresh per-block partials
/// accumulated in row order, merged in ascending block order — for hundreds
/// of seeded (rows × cols × block_size) shapes, including tail blocks
/// shorter than the block size, single-row blocks, sparse index subsets, and
/// adversarial magnitudes (1e±30 mixes, denormals, negative zeros). Any
/// reassociation, contraction, or accumulation shortcut that changes even
/// one bit of one block fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/partition_finder.h"
#include "distributed/backend.h"
#include "distributed/shard_planner.h"
#include "linalg/error_partials.h"
#include "linalg/score_partials.h"
#include "linalg/suffstats.h"
#include "table/table_builder.h"

namespace charles {
namespace {

/// One adversarial double: a mixture of benign values, huge/tiny decades
/// (1e±30), denormals, and signed zeros — the inputs where any intra-block
/// reassociation shows up as changed bits immediately.
double AdversarialValue(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  switch (rng() % 8) {
    case 0:
      return unit(rng);
    case 1:
      return unit(rng) * 1e30;
    case 2:
      return unit(rng) * 1e-30;
    case 3:
      return -0.0;
    case 4:
      return 0.0;
    case 5:
      // A spread of true denormals (the smallest representable magnitudes).
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng() % 1000);
    case 6:
      // Large mean, small spread: the shift-cancellation regime.
      return 1e8 + unit(rng);
    default: {
      int exp10 = static_cast<int>(rng() % 61) - 30;
      return unit(rng) * std::pow(10.0, exp10);
    }
  }
}

std::vector<double> AdversarialColumn(int64_t n, std::mt19937_64& rng) {
  std::vector<double> column(static_cast<size_t>(n));
  for (double& v : column) v = AdversarialValue(rng);
  return column;
}

/// Row index sets: either all rows or a random sorted subset (leaves are
/// subsets, and subsets produce short and fragmented per-block runs).
std::vector<int64_t> MakeRows(int64_t n, bool subset, std::mt19937_64& rng) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < n; ++r) {
    if (!subset || rng() % 3 != 0) rows.push_back(r);
  }
  if (rows.empty()) rows.push_back(n / 2);  // keep at least one row
  return rows;
}

struct ShapeCase {
  std::vector<std::vector<double>> column_storage;
  std::vector<const std::vector<double>*> columns;
  std::vector<double> y;
  std::vector<int64_t> rows;
};

ShapeCase MakeShapeCase(int64_t num_rows, int64_t num_cols, bool subset,
                        std::mt19937_64& rng) {
  ShapeCase c;
  c.column_storage.reserve(static_cast<size_t>(num_cols));
  for (int64_t f = 0; f < num_cols; ++f) {
    c.column_storage.push_back(AdversarialColumn(num_rows, rng));
  }
  for (const auto& col : c.column_storage) c.columns.push_back(&col);
  c.y = AdversarialColumn(num_rows, rng);
  c.rows = MakeRows(num_rows, subset, rng);
  return c;
}

/// The contract's definition of one block partial, written out independently
/// of the library fold: fresh stats, one Accumulate per row in row order.
SufficientStats ReferenceBlock(const ShapeCase& c, const int64_t* rows,
                               int64_t count) {
  SufficientStats stats(static_cast<int64_t>(c.columns.size()));
  std::vector<double> x(c.columns.size());
  for (int64_t r = 0; r < count; ++r) {
    size_t row = static_cast<size_t>(rows[r]);
    for (size_t f = 0; f < c.columns.size(); ++f) x[f] = (*c.columns[f])[row];
    stats.Accumulate(x.data(), c.y[row]);
  }
  return stats;
}

/// The contract's definition of the whole fold: reference block partials
/// merged in ascending block order.
SufficientStats ReferenceRowBlocks(const ShapeCase& c,
                                   const std::vector<int64_t>& rows,
                                   int64_t block_rows) {
  SufficientStats merged(static_cast<int64_t>(c.columns.size()));
  ForEachRowBlock(rows.data(), static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* ptr, int64_t n) {
                    EXPECT_TRUE(merged.Merge(ReferenceBlock(c, ptr, n)).ok());
                  });
  return merged;
}

// --- SufficientStats block folds --------------------------------------------

TEST(KernelParityTest, HundredsOfSeededShapesBitIdentical) {
  int shapes_checked = 0;
  for (uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 17);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 200);
    int64_t num_cols = static_cast<int64_t>(rng() % 7);  // includes p = 0
    bool subset = (rng() % 2) == 0;
    ShapeCase c = MakeShapeCase(num_rows, num_cols, subset, rng);
    // Block sizes spanning single-row blocks, prime sizes that leave tails,
    // one-block cases, and blocks larger than the data.
    const int64_t blocks[] = {1, 3, 7, 16, 64, num_rows, num_rows + 13};
    for (int64_t block_rows : blocks) {
      SufficientStats expected = ReferenceRowBlocks(c, c.rows, block_rows);
      SufficientStats actual =
          AccumulateRowBlocks(c.columns, c.y, c.rows, block_rows);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " rows " << num_rows << " cols " << num_cols
          << " block " << block_rows << " subset " << subset;
      ++shapes_checked;
    }
  }
  EXPECT_GE(shapes_checked, 1000);  // "hundreds of shapes" and then some
}

TEST(KernelParityTest, ContiguousRangeFoldBitIdentical) {
  // The range fold must equal the indexed fold over the identity index set
  // — the contract that lets shards address blocks either way — and both
  // must equal the reference, tail block included.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 5);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 5);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/false, rng);
    for (int64_t block_rows : {1L, 5L, 32L, num_rows, num_rows + 1}) {
      SufficientStats range =
          AccumulateRangeBlocks(c.columns, c.y, num_rows, block_rows);
      SufficientStats indexed =
          AccumulateRowBlocks(c.columns, c.y, c.rows, block_rows);
      ASSERT_TRUE(range.BitIdenticalTo(indexed))
          << "seed " << seed << " rows " << num_rows << " block " << block_rows;
      ASSERT_TRUE(range.BitIdenticalTo(ReferenceRowBlocks(c, c.rows, block_rows)))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

TEST(KernelParityTest, SingleBlockPrimitiveBitIdentical) {
  // The raw block primitive (one fresh partial per call), including the
  // single-row and empty-block edges.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 80);
    int64_t num_cols = static_cast<int64_t>(rng() % 5);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
    int64_t count = static_cast<int64_t>(c.rows.size());
    for (int64_t take : {int64_t{0}, int64_t{1}, count / 2, count}) {
      SufficientStats expected = ReferenceBlock(c, c.rows.data(), take);
      SufficientStats actual =
          AccumulateRows(c.columns, c.y, c.rows.data(), take);
      ASSERT_TRUE(actual.BitIdenticalTo(expected))
          << "seed " << seed << " take " << take;
      EXPECT_EQ(actual.n(), take);
    }
  }
}

TEST(KernelParityTest, MergeAcrossShardBoundarySplitsBitIdentical) {
  // The coordinator's computation: shards each produce *per-block* partials
  // and the merge folds every block in ascending order. Splitting the row
  // set at any block boundary and folding the two shards' blocks into one
  // stats must be bit-identical to the one-pass central fold.
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(seed * 13 + 3);
    int64_t num_rows = 16 + static_cast<int64_t>(rng() % 200);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 4);
    int64_t block_rows = 1 + static_cast<int64_t>(rng() % 32);
    ShapeCase c = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);

    SufficientStats expected =
        AccumulateRowBlocks(c.columns, c.y, c.rows, block_rows);

    // Split position: the first row index at or after a random block
    // boundary — exactly where the shard planner is allowed to cut.
    int64_t boundary_row =
        block_rows *
        (1 + static_cast<int64_t>(
                 rng() % static_cast<uint64_t>(num_rows / block_rows + 1)));
    size_t split = 0;
    while (split < c.rows.size() && c.rows[split] < boundary_row) ++split;
    std::vector<int64_t> left(c.rows.begin(), c.rows.begin() + split);
    std::vector<int64_t> right(c.rows.begin() + split, c.rows.end());

    SufficientStats merged(num_cols);
    for (const std::vector<int64_t>& part : {left, right}) {
      ForEachRowBlock(part.data(), static_cast<int64_t>(part.size()),
                      block_rows,
                      [&](int64_t /*block*/, const int64_t* ptr, int64_t n) {
                        ASSERT_TRUE(
                            merged.Merge(AccumulateRows(c.columns, c.y, ptr, n))
                                .ok());
                      });
    }
    ASSERT_TRUE(merged.BitIdenticalTo(expected))
        << "seed " << seed << " split at row " << boundary_row;
  }
}

// --- ErrorPartials folds -----------------------------------------------------

/// Reference Σ|a[i] − b[i]| (or Σ|a[i]| when b is null) per block, each from
/// zero in index order, merged in ascending block order.
ErrorPartials ReferenceAbsBlocks(const std::vector<double>& a,
                                 const std::vector<double>* b,
                                 const std::vector<int64_t>& rows,
                                 int64_t block_rows) {
  ErrorPartials total;
  ForEachRowBlock(rows.data(), static_cast<int64_t>(rows.size()), block_rows,
                  [&](int64_t /*block*/, const int64_t* ptr, int64_t n) {
                    size_t base = static_cast<size_t>(ptr - rows.data());
                    ErrorPartials block;
                    for (size_t i = base; i < base + static_cast<size_t>(n); ++i) {
                      block.Accumulate(a[i], b != nullptr ? (*b)[i] : 0.0);
                    }
                    total.Merge(block);
                  });
  return total;
}

TEST(KernelParityTest, AbsDiffAndAbsFoldsBitIdentical) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 911 + 1);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 400);
    std::vector<int64_t> rows = MakeRows(num_rows, (rng() % 2) == 0, rng);
    // Positional arrays: values[i] belongs to global row rows[i].
    std::vector<double> a = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> b = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      ASSERT_TRUE(AccumulateAbsDiffBlocks(a, b, rows, block_rows)
                      .BitIdenticalTo(ReferenceAbsBlocks(a, &b, rows, block_rows)))
          << "seed " << seed << " block " << block_rows;
      ASSERT_TRUE(AccumulateAbsBlocks(a, rows, block_rows)
                      .BitIdenticalTo(ReferenceAbsBlocks(a, nullptr, rows, block_rows)))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

// --- Probe folds on the shard task kernel -----------------------------------

/// A ShardInput over a ShapeCase: shortlist "c0".."c{p-1}", one leaf (the
/// case's row subset). ColumnCache has no public inserter, so the columns go
/// through a throwaway table — Value(double) round-trips bits exactly.
/// Values, intercept and coefficients are drawn from one moderate range, not
/// the adversarial decades: there a 1e30-scale error absorbs every other
/// row's rounding, so a changed ŷ evaluation order would go unseen.
struct ProbeCase {
  ShapeCase shape;
  std::vector<std::string> shortlist;
  ColumnCache columns;
  std::vector<double> y_old;
  RowSet leaf;
  ShardInput input;
  ErrorProbe probe;
};

std::unique_ptr<ProbeCase> MakeProbeCase(int64_t num_rows, int64_t num_cols,
                                         std::mt19937_64& rng) {
  auto pc = std::make_unique<ProbeCase>();
  pc->shape = MakeShapeCase(num_rows, num_cols, /*subset=*/true, rng);
  std::uniform_real_distribution<double> moderate(-100.0, 100.0);
  for (std::vector<double>& column : pc->shape.column_storage) {
    for (double& v : column) v = moderate(rng);
  }
  for (double& v : pc->shape.y) v = moderate(rng);
  std::vector<Field> fields;
  for (int64_t f = 0; f < num_cols; ++f) {
    pc->shortlist.push_back("c" + std::to_string(f));
    fields.push_back(Field{pc->shortlist.back(), TypeKind::kDouble, false});
  }
  TableBuilder builder(Schema::Make(fields).ValueOrDie());
  for (int64_t r = 0; r < num_rows; ++r) {
    std::vector<Value> row;
    for (int64_t f = 0; f < num_cols; ++f) {
      row.emplace_back(pc->shape.column_storage[static_cast<size_t>(f)]
                                               [static_cast<size_t>(r)]);
    }
    builder.AppendRow(row).AbortIfNotOk();
  }
  Table table = builder.Finish().ValueOrDie();
  pc->columns = ColumnCache::Build(table, pc->shortlist).ValueOrDie();
  pc->y_old.assign(static_cast<size_t>(num_rows), 0.0);
  pc->leaf = RowSet(pc->shape.rows);
  pc->input.shortlist = &pc->shortlist;
  pc->input.columns = &pc->columns;
  pc->input.y_old = &pc->y_old;
  pc->input.y_new = &pc->shape.y;
  pc->input.leaves.push_back(&pc->leaf);
  pc->probe.leaf = 0;
  pc->probe.intercept = moderate(rng);
  for (int64_t f = 0; f < num_cols; ++f) {
    pc->probe.features.push_back(f);
    pc->probe.coefficients.push_back(moderate(rng));
  }
  return pc;
}

/// Runs `task` on every shard of `plan` and concatenates the per-block
/// partials of probe 0 in shard (= ascending block) order.
template <typename Partials>
std::vector<std::pair<int64_t, Partials>> RunProbeBlocks(
    const ProbeCase& pc, const ShardPlan& plan, const ShardTask& task) {
  std::vector<std::pair<int64_t, Partials>> blocks;
  for (int64_t s = 0; s < plan.num_shards(); ++s) {
    ShardTaskResult result =
        ExecuteShardTaskKernel(pc.input, plan, s, task).ValueOrDie();
    if constexpr (std::is_same_v<Partials, ErrorPartials>) {
      for (const ProbeShardErrors& probe : result.probes) {
        blocks.insert(blocks.end(), probe.blocks.begin(), probe.blocks.end());
      }
    } else {
      for (const ProbeShardScores& probe : result.score_probes) {
        blocks.insert(blocks.end(), probe.blocks.begin(), probe.blocks.end());
      }
    }
  }
  return blocks;
}

TEST(KernelParityTest, ProbeAbsErrorSumBitIdentical) {
  // kErrorPartials block partials equal the central canonical fold of
  // |y − ŷ| with ŷ accumulated left-to-right (LinearModel::PredictRow's
  // order), at any shard count.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed * 2221 + 9);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 3);
    int64_t block_rows = 1 + static_cast<int64_t>(rng() % 40);
    std::unique_ptr<ProbeCase> pc = MakeProbeCase(num_rows, num_cols, rng);
    const ShapeCase& c = pc->shape;
    std::vector<double> y(c.rows.size()), y_hat(c.rows.size());
    for (size_t i = 0; i < c.rows.size(); ++i) {
      size_t row = static_cast<size_t>(c.rows[i]);
      y[i] = c.y[row];
      y_hat[i] = pc->probe.intercept;
      for (size_t f = 0; f < c.columns.size(); ++f) {
        y_hat[i] += pc->probe.coefficients[f] * (*c.columns[f])[row];
      }
    }
    ErrorPartials expected = AccumulateAbsDiffBlocks(y, y_hat, c.rows, block_rows);
    ShardTask task;
    task.kind = ShardTaskKind::kErrorPartials;
    task.probes.push_back(pc->probe);
    for (int shards : {1, 3}) {
      ErrorPartials merged;
      for (const auto& [block, partials] : RunProbeBlocks<ErrorPartials>(
               *pc, PlanShards(num_rows, block_rows, shards), task)) {
        merged.Merge(partials);
      }
      ASSERT_TRUE(merged.BitIdenticalTo(expected))
          << "seed " << seed << " shards " << shards;
    }
  }
}

// --- ScorePartials folds ------------------------------------------------------

TEST(KernelParityTest, ScoreDiffSumBitIdenticalAndSumMatchesAbsDiff) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 433 + 5);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 400);
    std::vector<int64_t> rows = MakeRows(num_rows, (rng() % 2) == 0, rng);
    std::vector<double> a = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    std::vector<double> b = AdversarialColumn(static_cast<int64_t>(rows.size()), rng);
    // Spread the band across the adversarial decades so some seeds tally
    // nothing, some everything, most a genuine mix.
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 61) - 30);
    int64_t within = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i] - b[i]) <= tolerance) ++within;
    }
    for (int64_t block_rows : {1L, 7L, 64L, num_rows + 1}) {
      ScorePartials score =
          AccumulateScoreDiffBlocks(a, b, rows, block_rows, tolerance);
      EXPECT_EQ(score.exact_count, within) << "seed " << seed;
      // The Σ chain is the error fold's chain: same addends, same order.
      ErrorPartials error_fold = AccumulateAbsDiffBlocks(a, b, rows, block_rows);
      ASSERT_TRUE(score.error().BitIdenticalTo(error_fold))
          << "seed " << seed << " block " << block_rows;
    }
  }
}

TEST(KernelParityTest, ProbeScoreSumBitIdenticalAndSumMatchesProbeError) {
  // A kScorePartials probe replays the kErrorPartials probe's ŷ and Σ chains
  // exactly — per block, at any shard count — which is what lets a score
  // round double as the error baseline (ScorePartials::error()).
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed * 3907 + 11);
    int64_t num_rows = 1 + static_cast<int64_t>(rng() % 300);
    int64_t num_cols = 1 + static_cast<int64_t>(rng() % 3);
    int64_t block_rows = 1 + static_cast<int64_t>(rng() % 40);
    std::unique_ptr<ProbeCase> pc = MakeProbeCase(num_rows, num_cols, rng);
    // |errors| here are O(1e4) at most: spread the band so some seeds tally
    // nothing, some everything, most a genuine mix.
    double tolerance = std::pow(10.0, static_cast<int>(rng() % 7) - 2);
    ShardTask error_task;
    error_task.kind = ShardTaskKind::kErrorPartials;
    error_task.probes.push_back(pc->probe);
    ShardTask score_task = error_task;
    score_task.kind = ShardTaskKind::kScorePartials;
    score_task.score_tolerance = tolerance;
    for (int shards : {1, 3}) {
      ShardPlan plan = PlanShards(num_rows, block_rows, shards);
      auto errors = RunProbeBlocks<ErrorPartials>(*pc, plan, error_task);
      auto scores = RunProbeBlocks<ScorePartials>(*pc, plan, score_task);
      ASSERT_EQ(errors.size(), scores.size());
      int64_t within = 0;
      for (size_t b = 0; b < errors.size(); ++b) {
        ASSERT_EQ(errors[b].first, scores[b].first);
        ASSERT_TRUE(scores[b].second.error().BitIdenticalTo(errors[b].second))
            << "seed " << seed << " shards " << shards << " block "
            << errors[b].first;
        within += scores[b].second.exact_count;
      }
      // The tally counts the same per-row errors, recomputed here.
      int64_t expected_within = 0;
      for (int64_t row : pc->shape.rows) {
        size_t r = static_cast<size_t>(row);
        double y_hat = pc->probe.intercept;
        for (size_t f = 0; f < pc->shape.columns.size(); ++f) {
          y_hat += pc->probe.coefficients[f] * (*pc->shape.columns[f])[r];
        }
        if (std::abs(pc->shape.y[r] - y_hat) <= tolerance) ++expected_within;
      }
      EXPECT_EQ(within, expected_within) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace charles
