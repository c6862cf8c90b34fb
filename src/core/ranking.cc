#include "core/ranking.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "core/scoring.h"

namespace charles {

namespace {

/// The score on the 1e-7 ranking grid. Callers pass finite scores only; the
/// clamp keeps llround defined for finite scores beyond the int64 range.
int64_t QuantizedScore(double score) {
  constexpr double kLimit = 9.0e18;
  return static_cast<int64_t>(
      std::llround(std::clamp(score * 1e7, -kLimit, kLimit)));
}

bool UsesOldTarget(const ChangeSummary& summary) {
  const auto& attrs = summary.transform_attributes();
  return std::find(attrs.begin(), attrs.end(), summary.target_attribute()) !=
         attrs.end();
}

}  // namespace

RankRecord MakeRankRecord(const ChangeSummary& summary, std::string signature,
                          int32_t partition_index, int32_t t_index) {
  RankRecord record;
  record.partition_index = partition_index;
  record.t_index = t_index;
  record.signature = std::move(signature);
  record.scores = summary.scores();
  record.num_cts = summary.num_cts();
  record.uses_old_target = UsesOldTarget(summary);
  return record;
}

bool RankBefore(const RankKey& a, const RankKey& b) {
  const bool a_finite = std::isfinite(a.score);
  const bool b_finite = std::isfinite(b.score);
  if (a_finite != b_finite) return a_finite;
  if (a_finite) {
    int64_t qa = QuantizedScore(a.score);
    int64_t qb = QuantizedScore(b.score);
    if (qa != qb) return qa > qb;
  }
  if (a.num_cts != b.num_cts) return a.num_cts < b.num_cts;
  if (a.uses_old_target != b.uses_old_target) return a.uses_old_target;
  return *a.signature < *b.signature;
}

bool SummaryOrder(const ChangeSummary& a, const ChangeSummary& b) {
  const std::string sa = a.Signature();
  const std::string sb = b.Signature();
  return RankBefore({a.scores().score, a.num_cts(), UsesOldTarget(a), &sa},
                    {b.scores().score, b.num_cts(), UsesOldTarget(b), &sb});
}

RankedRecords RankRecords(const std::vector<RankRecord>& records,
                          const ScoreWeights& weights, double alpha, int top_n) {
  std::vector<ScoreBreakdown> scores(records.size());
  std::vector<RankKey> keys(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const RankRecord& record = records[i];
    ScoreBreakdown& s = scores[i];
    s = record.scores;
    s.interpretability = BlendInterpretability(s, weights, record.num_cts);
    s.score = BlendScore(s.accuracy, s.interpretability, alpha);
    keys[i] = RankKey{s.score, record.num_cts, record.uses_old_target,
                      &record.signature};
  }

  // Best record per signature, replayed in item order: a later record
  // replaces the incumbent only when it ranks strictly before it.
  RankedRecords out;
  std::unordered_map<std::string_view, size_t> best;
  best.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ++out.evaluated;
    auto [it, inserted] = best.emplace(records[i].signature, i);
    if (inserted) continue;
    ++out.deduped;
    if (RankBefore(keys[i], keys[it->second])) it->second = i;
  }

  // The signature tie-break makes the order total over distinct
  // signatures, so the sort does not depend on the map's iteration order.
  out.winners.reserve(best.size());
  for (const auto& entry : best) out.winners.push_back(entry.second);
  std::sort(out.winners.begin(), out.winners.end(),
            [&keys](size_t a, size_t b) { return RankBefore(keys[a], keys[b]); });
  if (static_cast<int>(out.winners.size()) > top_n) {
    out.winners.resize(static_cast<size_t>(top_n));
  }
  out.scores.reserve(out.winners.size());
  for (size_t winner : out.winners) out.scores.push_back(scores[winner]);
  return out;
}

}  // namespace charles
