/// \file
/// The EngineContext stage memo: a repeat that changes only alpha, the
/// weights or top_n re-ranks memoized records, and every memo answer is
/// bit-identical to a fresh cold run. Also covers the shared ranking order
/// on non-finite scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/engine_context.h"
#include "core/ranking.h"
#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"

namespace charles {
namespace {

struct Workload {
  Table source;
  Table target;
  CharlesOptions options;
};

Workload Employees(int64_t rows = 200) {
  EmployeeGenOptions gen;
  gen.num_rows = rows;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Workload w;
  w.source = GenerateEmployees(gen).ValueOrDie();
  w.target = MakeEmployeeBonusPolicy().Apply(w.source).ValueOrDie();
  w.options.target_attribute = "bonus";
  w.options.key_columns = {"emp_id"};
  w.options.stats_block_rows = 64;
  w.options.max_condition_attrs = 2;  // a smaller search keeps the sweeps fast
  return w;
}

Workload Billionaires(int64_t rows = 200) {
  BillionairesGenOptions gen;
  gen.num_rows = rows;
  Workload w;
  w.source = GenerateBillionaires(gen).ValueOrDie();
  w.target = MakeMarketPolicy().Apply(w.source).ValueOrDie();
  w.options.target_attribute = "net_worth";
  w.options.key_columns = {"person_id"};
  w.options.stats_block_rows = 64;
  return w;
}

/// A fresh serial engine with no context: the reference every memo answer
/// must reproduce.
SummaryList Cold(const Workload& w, CharlesOptions options) {
  options.num_threads = 1;
  return CharlesEngine(options).Find(w.source, w.target).ValueOrDie();
}

SummaryList Warm(const Workload& w, const CharlesOptions& options,
                 EngineContext* context) {
  return CharlesEngine(options, context).Find(w.source, w.target).ValueOrDie();
}

/// Same ranked summaries (signature, rendering, every ScoreBreakdown bit)
/// and the same search counts.
void ExpectBitIdentical(const SummaryList& expected, const SummaryList& actual) {
  ASSERT_EQ(expected.summaries.size(), actual.summaries.size());
  for (size_t i = 0; i < expected.summaries.size(); ++i) {
    const ChangeSummary& a = expected.summaries[i];
    const ChangeSummary& b = actual.summaries[i];
    EXPECT_EQ(a.Signature(), b.Signature()) << "rank " << i;
    EXPECT_EQ(a.ToString(), b.ToString()) << "rank " << i;
    EXPECT_EQ(std::memcmp(&a.scores(), &b.scores(), sizeof(ScoreBreakdown)), 0)
        << "rank " << i;
  }
  EXPECT_EQ(expected.labelings, actual.labelings);
  EXPECT_EQ(expected.partitions, actual.partitions);
  EXPECT_EQ(expected.candidates_evaluated, actual.candidates_evaluated);
  EXPECT_EQ(expected.candidates_deduped, actual.candidates_deduped);
}

void ExpectFullHit(const SummaryList& result) {
  EXPECT_EQ(result.stage_memo_phase12_hits, 1);
  EXPECT_EQ(result.stage_memo_phase3_hits, 1);
  EXPECT_EQ(result.leaf_fits_computed, 0);
}

void ExpectReRanksEqualColdRuns(const Workload& w) {
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  SummaryList first = Warm(w, w.options, &context);
  EXPECT_EQ(first.stage_memo_phase12_hits, 0);
  EXPECT_EQ(first.stage_memo_phase3_hits, 0);
  ExpectBitIdentical(Cold(w, w.options), first);

  std::vector<std::pair<std::string, std::function<void(CharlesOptions*)>>> edits = {
      {"alpha 0.2", [](CharlesOptions* o) { o->alpha = 0.2; }},
      {"alpha 0.8", [](CharlesOptions* o) { o->alpha = 0.8; }},
      {"alpha 1", [](CharlesOptions* o) { o->alpha = 1.0; }},
      {"weights", [](CharlesOptions* o) {
         o->weights.summary_size = 0.6;
         o->weights.normality = 0.05;
       }},
      {"coverage only", [](CharlesOptions* o) {
         o->weights = ScoreWeights{0.0, 0.0, 0.0, 1.0, 0.0};
       }},
      {"top_n 3", [](CharlesOptions* o) { o->top_n = 3; }},
      {"top_n 40", [](CharlesOptions* o) { o->top_n = 40; }},
      {"all three", [](CharlesOptions* o) {
         o->alpha = 0.35;
         o->weights.condition_simplicity = 0.5;
         o->top_n = 7;
       }},
  };
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    CharlesOptions options = w.options;
    edit(&options);
    SummaryList warm = Warm(w, options, &context);
    ExpectFullHit(warm);
    ExpectBitIdentical(Cold(w, options), warm);
  }
}

TEST(StageMemoTest, AlphaWeightsAndTopNReRankEmployeesBitIdentically) {
  ExpectReRanksEqualColdRuns(Employees());
}

TEST(StageMemoTest, AlphaWeightsAndTopNReRankBillionairesBitIdentically) {
  ExpectReRanksEqualColdRuns(Billionaires());
}

TEST(StageMemoTest, EveryResultAffectingOptionMatchesAColdRun) {
  // Warm the memo on the base options, then change one field at a time. A
  // field missing from a memo key would hand back the base run's products
  // and diverge from the cold run with the same options.
  const Workload w = Employees();
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  Warm(w, w.options, &context);

  std::vector<std::pair<std::string, std::function<void(CharlesOptions*)>>> edits = {
      {"max_condition_attrs", [](CharlesOptions* o) { o->max_condition_attrs = 1; }},
      {"max_transform_attrs", [](CharlesOptions* o) { o->max_transform_attrs = 1; }},
      {"correlation_threshold", [](CharlesOptions* o) { o->correlation_threshold = 0.05; }},
      {"max_condition_candidates",
       [](CharlesOptions* o) { o->max_condition_candidates = 3; }},
      {"max_transform_candidates",
       [](CharlesOptions* o) { o->max_transform_candidates = 1; }},
      {"min_condition_candidates",
       [](CharlesOptions* o) { o->min_condition_candidates = 6; }},
      {"min_transform_candidates",
       [](CharlesOptions* o) { o->min_transform_candidates = 4; }},
      {"condition_attributes",
       [](CharlesOptions* o) { o->condition_attributes = {"edu", "decoy_cat_0"}; }},
      {"transform_attributes",
       [](CharlesOptions* o) { o->transform_attributes = {"salary"}; }},
      {"include_old_target_in_transform",
       [](CharlesOptions* o) { o->include_old_target_in_transform = false; }},
      {"max_clusters", [](CharlesOptions* o) { o->max_clusters = 3; }},
      {"tree_max_depth", [](CharlesOptions* o) { o->tree_max_depth = 3; }},
      {"min_partition_size", [](CharlesOptions* o) { o->min_partition_size = 40; }},
      {"max_partitions", [](CharlesOptions* o) { o->max_partitions = 20; }},
      {"use_sufficient_stats", [](CharlesOptions* o) { o->use_sufficient_stats = false; }},
      {"stats_block_rows", [](CharlesOptions* o) { o->stats_block_rows = 32; }},
      {"numeric_tolerance", [](CharlesOptions* o) { o->numeric_tolerance = 50.0; }},
      {"seed", [](CharlesOptions* o) { o->seed = 7; }},
      {"enable_snapping", [](CharlesOptions* o) { o->normality.enable_snapping = false; }},
      {"max_relative_coefficient_shift",
       [](CharlesOptions* o) { o->normality.max_relative_coefficient_shift = 0.5; }},
      {"max_relative_accuracy_loss",
       [](CharlesOptions* o) { o->normality.max_relative_accuracy_loss = 0.5; }},
      {"exactness_tolerance",
       [](CharlesOptions* o) { o->normality.exactness_tolerance = 100.0; }},
      {"alpha", [](CharlesOptions* o) { o->alpha = 0.9; }},
      {"top_n", [](CharlesOptions* o) { o->top_n = 4; }},
      {"weights", [](CharlesOptions* o) { o->weights.transform_simplicity = 0.9; }},
  };
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    CharlesOptions options = w.options;
    edit(&options);
    ExpectBitIdentical(Cold(w, options), Warm(w, options, &context));
  }
}

TEST(StageMemoTest, EditedConditionDecoyOrTargetValueMisses) {
  Workload w = Employees();
  // Force the categorical decoy into the condition shortlist, so phase 2
  // reads it while nothing else does.
  w.options.condition_attributes = {"edu", "exp", "decoy_cat_0"};
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  Warm(w, w.options, &context);
  ExpectFullHit(Warm(w, w.options, &context));

  // One decoy cell, edited identically in both snapshots (so it is not a
  // change): the condition column the trees read differs.
  Workload decoy = w;
  const int col = decoy.source.schema().FieldIndex("decoy_cat_0").ValueOrDie();
  const Value first = decoy.source.column(col).GetValue(0);
  int64_t other = 1;
  while (decoy.source.column(col).GetValue(other) == first) ++other;
  const Value replacement = decoy.source.column(col).GetValue(other);
  ASSERT_TRUE(decoy.source.SetValue(0, col, replacement).ok());
  ASSERT_TRUE(decoy.target.SetValue(0, col, replacement).ok());
  SummaryList decoy_warm = Warm(decoy, decoy.options, &context);
  EXPECT_EQ(decoy_warm.stage_memo_phase12_hits, 0);
  EXPECT_EQ(decoy_warm.stage_memo_phase3_hits, 0);
  ExpectBitIdentical(Cold(decoy, decoy.options), decoy_warm);

  // One target value.
  Workload target = w;
  const int bonus = target.target.schema().FieldIndex("bonus").ValueOrDie();
  const double old_bonus = target.target.column(bonus).GetValue(5).AsDouble().ValueOrDie();
  ASSERT_TRUE(target.target.SetValue(5, bonus, Value(old_bonus + 0.5)).ok());
  SummaryList target_warm = Warm(target, target.options, &context);
  EXPECT_EQ(target_warm.stage_memo_phase12_hits, 0);
  EXPECT_EQ(target_warm.stage_memo_phase3_hits, 0);
  ExpectBitIdentical(Cold(target, target.options), target_warm);
}

TEST(StageMemoTest, HitStreamsOneFinalUpdate) {
  const Workload w = Employees();
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  Warm(w, w.options, &context);

  std::vector<SummaryStreamUpdate> updates;
  SummaryList hit;
  {
    SummaryStream stream(
        [&updates](const SummaryStreamUpdate& update) { updates.push_back(update); });
    hit = CharlesEngine(w.options, &context)
              .Find(w.source, w.target, &stream)
              .ValueOrDie();
  }
  ExpectFullHit(hit);
  ASSERT_EQ(updates.size(), 1u);
  const SummaryStreamUpdate& update = updates[0];
  EXPECT_FALSE(update.cancelled);
  EXPECT_EQ(update.shards_completed, update.shards_total);

  // The hit reports the cold run's work-item count.
  int64_t cold_total = 0;
  {
    CharlesOptions options = w.options;
    options.num_threads = 1;
    SummaryStream stream([&cold_total](const SummaryStreamUpdate& u) {
      cold_total = u.shards_total;
    });
    CharlesEngine(options).Find(w.source, w.target, &stream).ValueOrDie();
  }
  EXPECT_GT(cold_total, 0);
  EXPECT_EQ(update.shards_total, cold_total);
  ASSERT_EQ(update.provisional.size(), hit.summaries.size());
  for (size_t i = 0; i < hit.summaries.size(); ++i) {
    EXPECT_EQ(update.provisional[i].Signature(), hit.summaries[i].Signature());
  }
}

TEST(StageMemoTest, ConcurrentRunsOnOneContextStayBitIdentical) {
  const Workload w = Employees();
  CharlesOptions same = w.options;
  CharlesOptions other = w.options;
  other.alpha = 0.2;
  const SummaryList same_cold = Cold(w, same);
  const SummaryList other_cold = Cold(w, other);

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  Warm(w, w.options, &context);

  // Two clients on one context: one repeats the warmed query, the other
  // alternates it with a different alpha.
  std::vector<SummaryList> same_results(4);
  std::vector<SummaryList> other_results(4);
  std::thread a([&] {
    for (SummaryList& result : same_results) result = Warm(w, same, &context);
  });
  std::thread b([&] {
    for (size_t i = 0; i < other_results.size(); ++i) {
      other_results[i] = Warm(w, i % 2 == 0 ? other : same, &context);
    }
  });
  a.join();
  b.join();
  for (const SummaryList& result : same_results) {
    ExpectFullHit(result);
    ExpectBitIdentical(same_cold, result);
  }
  for (size_t i = 0; i < other_results.size(); ++i) {
    ExpectFullHit(other_results[i]);
    ExpectBitIdentical(i % 2 == 0 ? other_cold : same_cold, other_results[i]);
  }
}

TEST(StageMemoTest, BoundedAndClearedMemoStaysCorrect) {
  const Workload w = Employees();
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  ctx_options.max_cache_entries = 1;  // one memo entry: the two stages evict each other
  EngineContext context(ctx_options);
  Warm(w, w.options, &context);
  EXPECT_LE(context.stage_memo_entries(), 1u);
  ExpectBitIdentical(Cold(w, w.options), Warm(w, w.options, &context));

  EngineContext unbounded;
  Warm(w, w.options, &unbounded);
  EXPECT_EQ(unbounded.stage_memo_entries(), 2u);  // phases 1–2, phase 3
  unbounded.ClearCaches();
  EXPECT_EQ(unbounded.stage_memo_entries(), 0u);
  SummaryList recold = Warm(w, w.options, &unbounded);
  EXPECT_EQ(recold.stage_memo_phase3_hits, 0);
  EXPECT_GT(recold.leaf_fits_computed, 0);
  EXPECT_GT(unbounded.stage_memo_misses(), 0);
  EXPECT_EQ(unbounded.stage_memo_hits(), 0);
}

// --- The shared ranking order ------------------------------------------------

ChangeSummary HandBuilt(const std::string& target, double accuracy) {
  ConditionalTransform ct;
  ct.condition = MakeColumnCompare("edu", CompareOp::kEq, Value(target));
  ct.transform = LinearTransform::NoChange("bonus");
  ChangeSummary summary({ct}, "bonus");
  ScoreBreakdown scores;
  scores.accuracy = accuracy;
  scores.summary_size = 1.0;
  scores.condition_simplicity = 0.5;
  scores.transform_simplicity = 1.0;
  scores.coverage = 1.0;
  scores.normality = 1.0;
  summary.set_scores(scores);
  return summary;
}

std::vector<std::string> RankedSignatures(const std::vector<ChangeSummary>& summaries) {
  std::vector<RankRecord> records;
  for (size_t i = 0; i < summaries.size(); ++i) {
    records.push_back(MakeRankRecord(summaries[i], summaries[i].Signature(),
                                     static_cast<int32_t>(i), 0));
  }
  RankedRecords ranked = RankRecords(records, ScoreWeights{}, 0.5, 100);
  std::vector<std::string> out;
  for (size_t winner : ranked.winners) out.push_back(records[winner].signature);
  return out;
}

TEST(StageMemoRankingTest, NonFiniteScoresRankLastInADeterministicOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ChangeSummary> summaries = {
      HandBuilt("A", nan), HandBuilt("B", 0.25), HandBuilt("C", inf),
      HandBuilt("D", -inf), HandBuilt("E", 0.75), HandBuilt("F", nan)};
  const std::vector<std::string> ranked = RankedSignatures(summaries);
  ASSERT_EQ(ranked.size(), summaries.size());
  // Finite scores first, best first; then every non-finite one, ordered by
  // the semantic tie-breaks (equal CT counts here, so by signature).
  EXPECT_EQ(ranked[0], summaries[4].Signature());
  EXPECT_EQ(ranked[1], summaries[1].Signature());
  std::vector<std::string> tail(ranked.begin() + 2, ranked.end());
  std::vector<std::string> expected_tail = {
      summaries[0].Signature(), summaries[2].Signature(),
      summaries[3].Signature(), summaries[5].Signature()};
  std::sort(expected_tail.begin(), expected_tail.end());
  EXPECT_EQ(tail, expected_tail);

  // Any input order gives the same ranking.
  std::vector<ChangeSummary> reversed(summaries.rbegin(), summaries.rend());
  EXPECT_EQ(RankedSignatures(reversed), ranked);
  std::vector<ChangeSummary> rotated(summaries.begin() + 2, summaries.end());
  rotated.insert(rotated.end(), summaries.begin(), summaries.begin() + 2);
  EXPECT_EQ(RankedSignatures(rotated), ranked);

  // The streamed order agrees on built summaries.
  ChangeSummary finite = summaries[1];
  finite.set_scores(RankRecords({MakeRankRecord(finite, finite.Signature(), 0, 0)},
                                ScoreWeights{}, 0.5, 1)
                        .scores[0]);
  ChangeSummary not_finite = summaries[0];
  ScoreBreakdown nan_scores = not_finite.scores();
  nan_scores.score = nan;
  not_finite.set_scores(nan_scores);
  EXPECT_TRUE(SummaryOrder(finite, not_finite));
  EXPECT_FALSE(SummaryOrder(not_finite, finite));
  EXPECT_FALSE(SummaryOrder(not_finite, not_finite));
}

TEST(StageMemoRankingTest, DedupKeepsTheEarliestOfEqualRecords) {
  ChangeSummary summary = HandBuilt("A", 0.5);
  std::vector<RankRecord> records = {
      MakeRankRecord(summary, summary.Signature(), 0, 0),
      MakeRankRecord(summary, summary.Signature(), 1, 0),
      MakeRankRecord(HandBuilt("A", 0.9), summary.Signature(), 2, 0)};
  RankedRecords ranked = RankRecords(records, ScoreWeights{}, 0.5, 10);
  EXPECT_EQ(ranked.evaluated, 3);
  EXPECT_EQ(ranked.deduped, 2);
  ASSERT_EQ(ranked.winners.size(), 1u);
  EXPECT_EQ(ranked.winners[0], 2u);  // strictly better replaces the incumbent

  records.pop_back();
  ranked = RankRecords(records, ScoreWeights{}, 0.5, 10);
  ASSERT_EQ(ranked.winners.size(), 1u);
  EXPECT_EQ(ranked.winners[0], 0u);  // a tie keeps the earlier item
}

}  // namespace
}  // namespace charles
