#include <gtest/gtest.h>

#include <thread>

#include "core/engine.h"
#include "core/normality.h"
#include "core/partition_finder.h"
#include "core/scoring.h"
#include "workload/example1.h"

namespace charles {
namespace {

TEST(CanonicalizeLabelsTest, FirstAppearanceRenumbering) {
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels({2, 2, 0, 1, 0}),
            (std::vector<int>{0, 0, 1, 2, 1}));
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels({0, 1, 2}), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels({5, 5, 5}), (std::vector<int>{0, 0, 0}));
  EXPECT_TRUE(PartitionFinder::CanonicalizeLabels({}).empty());
}

TEST(CanonicalizeLabelsTest, EquivalentClusteringsCollide) {
  // Same partition, different label names, must canonicalize identically.
  std::vector<int> a = {0, 0, 1, 1, 2};
  std::vector<int> b = {2, 2, 0, 0, 1};
  EXPECT_EQ(PartitionFinder::CanonicalizeLabels(a),
            PartitionFinder::CanonicalizeLabels(b));
}

class CacheEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = MakeExample1Source().ValueOrDie();
    target_ = MakeExample1Target().ValueOrDie();
    y_old_ = *source_.ColumnAsDoubles("bonus");
    y_new_ = *target_.ColumnAsDoubles("bonus");
    options_.target_attribute = "bonus";
    options_.key_columns = {"name"};
  }

  PartitionCandidate MakeCandidate() {
    PartitionFinder::Input input;
    input.source = &source_;
    input.y_old = &y_old_;
    input.y_new = &y_new_;
    input.transform_attrs = {"bonus"};
    int edu = *source_.schema().FieldIndex("edu");
    int exp = *source_.schema().FieldIndex("exp");
    auto candidates =
        PartitionFinder::Find(input, {edu, exp}, options_).ValueOrDie();
    // Pick the largest partitioning (most leaves to exercise the cache).
    size_t best = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].leaves.size() > candidates[best].leaves.size()) best = i;
    }
    return candidates[best];
  }

  Table source_;
  Table target_;
  std::vector<double> y_old_;
  std::vector<double> y_new_;
  CharlesOptions options_;
};

TEST_F(CacheEquivalenceTest, CachedAndUncachedSummariesAgree) {
  CharlesEngine engine(options_);
  PartitionCandidate candidate = MakeCandidate();
  CharlesEngine::LeafFitCache cache;
  ChangeSummary cached = engine
                             .BuildSummary(source_, y_old_, y_new_, candidate,
                                           {"bonus"}, {"edu", "exp"}, &cache)
                             .ValueOrDie();
  ChangeSummary uncached = engine
                               .BuildSummary(source_, y_old_, y_new_, candidate,
                                             {"bonus"}, {"edu", "exp"}, nullptr)
                               .ValueOrDie();
  EXPECT_EQ(cached.Signature(), uncached.Signature());
  EXPECT_DOUBLE_EQ(cached.scores().score, uncached.scores().score);
  EXPECT_FALSE(cache.empty());

  // Second cached call must hit (same fits, same result).
  size_t cache_size = cache.size();
  ChangeSummary again = engine
                            .BuildSummary(source_, y_old_, y_new_, candidate,
                                          {"bonus"}, {"edu", "exp"}, &cache)
                            .ValueOrDie();
  EXPECT_EQ(cache.size(), cache_size);
  EXPECT_EQ(again.Signature(), cached.Signature());
}

TEST_F(CacheEquivalenceTest, RowFreeSweepCachesNoPredictionsAndSharesLeafRows) {
  CharlesEngine engine(options_);
  PartitionFinder::Input input;
  input.source = &source_;
  input.y_old = &y_old_;
  input.y_new = &y_new_;
  input.transform_attrs = {"bonus"};
  int edu = *source_.schema().FieldIndex("edu");
  int exp = *source_.schema().FieldIndex("exp");
  const std::vector<PartitionCandidate> candidates =
      PartitionFinder::Find(input, {edu, exp}, options_).ValueOrDie();
  ASSERT_FALSE(candidates.empty());
  const std::vector<std::string> shortlist = {"bonus"};
  const std::vector<std::vector<int>> t_subsets = {{}, {0}};
  const std::vector<std::vector<std::string>> t_names = {{}, {"bonus"}};
  const std::vector<std::string> condition_attrs = {"edu", "exp"};
  ColumnCache columns = ColumnCache::Build(source_, shortlist).ValueOrDie();
  Scorer scorer(options_, y_old_, y_new_);

  // Two workers sweep the (candidate, T) items as a 2-thread Find's phase 3
  // does: each owns its local tiers, both share the cross-worker tiers.
  struct Worker {
    std::vector<CharlesEngine::LeafFitCache> fits{2};
    CharlesEngine::LeafStatsCache stats;
    std::vector<std::pair<size_t, size_t>> items;  // (candidate, T)
    std::vector<ChangeSummary> summaries;
  };
  CharlesEngine::SharedLeafFitCache shared_fits(4);
  CharlesEngine::SharedLeafStatsCache shared_stats(4);
  auto workspace_for = [&](size_t t, CharlesEngine::LeafStatsCache* local,
                           CharlesEngine::SharedLeafStatsCache* shared) {
    CharlesEngine::LeafStatsWorkspace ws;
    ws.shortlist = &shortlist;
    ws.t_subset = &t_subsets[t];
    ws.local = local;
    ws.shared = shared;
    ws.block_rows = options_.stats_block_rows;
    ws.score_tolerance = scorer.exact_tolerance();
    return ws;
  };
  std::vector<Worker> workers(2);
  for (size_t c = 0; c < candidates.size(); ++c) {
    for (size_t t = 0; t < t_subsets.size(); ++t) {
      workers[(c * t_subsets.size() + t) % 2].items.emplace_back(c, t);
    }
  }
  std::vector<std::thread> threads;
  for (Worker& worker : workers) {
    threads.emplace_back([&, w = &worker] {
      for (const auto& [c, t] : w->items) {
        CharlesEngine::LeafStatsWorkspace ws =
            workspace_for(t, &w->stats, &shared_stats);
        w->summaries.push_back(
            engine
                .BuildSummary(source_, y_old_, y_new_, candidates[c], t_names[t],
                              condition_attrs, &w->fits[t], &shared_fits, t, nullptr,
                              0, &columns, &ws, &scorer)
                .ValueOrDie());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const Worker& worker : workers) {
    for (const CharlesEngine::LeafFitCache& cache : worker.fits) {
      // Cached fits are compact (no predictions member at all); each must
      // carry the score partials the row-free sweep merges instead.
      for (const auto& [rows, fit] : cache) {
        EXPECT_TRUE(fit.has_score) << rows.ToString();
      }
    }
    for (size_t i = 0; i < worker.items.size(); ++i) {
      const PartitionCandidate& candidate = candidates[worker.items[i].first];
      const ChangeSummary& summary = worker.summaries[i];
      ASSERT_EQ(summary.cts().size(), candidate.leaves.size());
      for (size_t l = 0; l < candidate.leaves.size(); ++l) {
        EXPECT_EQ(summary.cts()[l].rows.indices().data(),
                  candidate.leaves[l].rows.indices().data());
      }
    }
  }

  // Without a scorer BuildSummary takes the row-scan path: cached fits
  // rebuild their predictions, and the scores match a fresh uncached fit's
  // bit for bit — and the row-free sweep's.
  for (Worker& worker : workers) {
    for (size_t i = 0; i < worker.items.size(); ++i) {
      const auto [c, t] = worker.items[i];
      CharlesEngine::LeafStatsWorkspace cached_ws =
          workspace_for(t, &worker.stats, &shared_stats);
      ChangeSummary rebuilt =
          engine
              .BuildSummary(source_, y_old_, y_new_, candidates[c], t_names[t],
                            condition_attrs, &worker.fits[t], &shared_fits, t,
                            nullptr, 0, &columns, &cached_ws, nullptr)
              .ValueOrDie();
      CharlesEngine::LeafStatsCache fresh_local;
      CharlesEngine::SharedLeafStatsCache fresh_shared(1);
      CharlesEngine::LeafStatsWorkspace fresh_ws =
          workspace_for(t, &fresh_local, &fresh_shared);
      ChangeSummary fresh =
          engine
              .BuildSummary(source_, y_old_, y_new_, candidates[c], t_names[t],
                            condition_attrs, nullptr, nullptr, t, nullptr, 0,
                            &columns, &fresh_ws, nullptr)
              .ValueOrDie();
      EXPECT_EQ(rebuilt.Signature(), fresh.Signature());
      EXPECT_EQ(rebuilt.scores().accuracy, fresh.scores().accuracy);
      EXPECT_EQ(rebuilt.scores().score, fresh.scores().score);
      EXPECT_EQ(rebuilt.scores().score, worker.summaries[i].scores().score);
    }
  }
}

TEST(ReadabilityBudgetTest, HugeSummariesLoseInterpretability) {
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  int64_t n = 100;
  std::vector<double> y(static_cast<size_t>(n), 1.0);
  Scorer scorer(options, y, y);

  auto summary_with_cts = [&](int count) {
    std::vector<ConditionalTransform> cts;
    for (int i = 0; i < count; ++i) {
      ConditionalTransform ct;
      ct.condition = MakeColumnCompare("name", CompareOp::kEq,
                                       Value("p" + std::to_string(i)));
      ct.transform = LinearTransform::NoChange("bonus");
      ct.rows = RowSet({i});
      ct.coverage = 1.0 / static_cast<double>(n);
      cts.push_back(std::move(ct));
    }
    return ChangeSummary(std::move(cts), "bonus");
  };
  double at_10 = scorer.InterpretabilityOnly(summary_with_cts(10)).interpretability;
  double at_100 = scorer.InterpretabilityOnly(summary_with_cts(100)).interpretability;
  // Beyond the ~10-CT budget interpretability must fall off sharply, not
  // saturate at the per-CT simplicity floor.
  EXPECT_LT(at_100, at_10 * 0.2);
}

TEST(MaxPartitionsTest, CapBoundsPhase3) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  options.max_partitions = 3;
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  EXPECT_LE(result.partitions, 3);
  EXPECT_FALSE(result.summaries.empty());
}

TEST(PhaseTimingsTest, Populated) {
  Table source = MakeExample1Source().ValueOrDie();
  Table target = MakeExample1Target().ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  SummaryList result = SummarizeChanges(source, target, options).ValueOrDie();
  EXPECT_GE(result.clustering_seconds, 0.0);
  EXPECT_GE(result.induction_seconds, 0.0);
  EXPECT_GE(result.fitting_seconds, 0.0);
  EXPECT_GE(result.elapsed_seconds, result.clustering_seconds);
  EXPECT_GT(result.labelings, 0);
  EXPECT_GT(result.partitions, 0);
}

TEST(SnapZeroTest, FloatingPointResidueInterceptsSnapToZero) {
  // y = 1.02 x exactly; the "fitted" model carries an fp-noise intercept.
  Matrix x = Matrix::FromRows({{50000}, {60000}, {70000}, {80000}});
  std::vector<double> y;
  for (int64_t r = 0; r < x.rows(); ++r) y.push_back(1.02 * x.At(r, 0));
  LinearModel fitted;
  fitted.coefficients = {1.02};
  fitted.feature_names = {"salary"};
  fitted.intercept = 0.00008;
  NormalityOptions options;
  LinearModel snapped = SnapModel(fitted, x, y, options);
  EXPECT_DOUBLE_EQ(snapped.intercept, 0.0);
  EXPECT_DOUBLE_EQ(snapped.coefficients[0], 1.02);
}

}  // namespace
}  // namespace charles
