#ifndef CHARLES_CORE_RANKING_H_
#define CHARLES_CORE_RANKING_H_

/// \file
/// \brief The engine's final ranking, over compact per-candidate records.
///
/// Phase 3 builds one summary per (partition, T) work item. Ranking them
/// needs only a few facts per item: its signature, its accuracy, its five
/// interpretability sub-scores, its CT count, and whether it reads the
/// target's old value. A RankRecord holds exactly those. RankRecords
/// recomputes interpretability and score under the caller's weights and α
/// (through BlendInterpretability / BlendScore, the functions the Scorer
/// uses), keeps the best item per signature in item order, sorts, and
/// truncates. Because nothing else is read, a change to only α, the weights,
/// or top_n re-ranks stored records instead of re-running the search
/// (docs/architecture.md#stage-memo).

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/summary.h"

namespace charles {

/// \brief What the ranking reads of one phase-3 work item.
struct RankRecord {
  int32_t partition_index = 0;  ///< index into the run's partitions
  int32_t t_index = 0;          ///< index into the run's T-subsets
  std::string signature;        ///< ChangeSummary::Signature()
  /// Accuracy and the five interpretability sub-scores; `interpretability`
  /// and `score` are not stored — RankRecords recomputes them.
  ScoreBreakdown scores;
  int num_cts = 0;
  bool uses_old_target = false;  ///< T contains the target attribute
};

/// The record of one built summary; `signature` is its Signature().
RankRecord MakeRankRecord(const ChangeSummary& summary, std::string signature,
                          int32_t partition_index, int32_t t_index);

/// \brief The facts the ranking order compares (the signature is borrowed).
struct RankKey {
  double score = 0.0;
  int num_cts = 0;
  bool uses_old_target = false;
  const std::string* signature = nullptr;
};

/// \brief The ranking order: score descending, then fewer CTs, then
/// transformations that read the target's old value, then signature text.
///
/// Scores are quantized to a 1e-7 grid so floating-point noise cannot
/// override the semantic tie-breaks. Non-finite scores (NaN, ±inf) rank
/// after every finite one and tie with each other on score, so the
/// tie-breaks order them; the order stays a strict weak order on any input.
bool RankBefore(const RankKey& a, const RankKey& b);

/// RankBefore over two built summaries (the streamed provisional top-N).
bool SummaryOrder(const ChangeSummary& a, const ChangeSummary& b);

/// \brief A ranking of records: the winners in rank order and their scores.
struct RankedRecords {
  std::vector<size_t> winners;         ///< indices into the records, best first
  std::vector<ScoreBreakdown> scores;  ///< the winners' complete breakdowns
  int64_t evaluated = 0;               ///< records ranked
  int64_t deduped = 0;                 ///< records beaten by a same-signature one
};

/// \brief Ranks `records` (in work-item order) under `weights` and `alpha`.
///
/// Per signature the best record wins, ties going to the earlier item — the
/// serial visit order — so the result is independent of how the records
/// were produced. Winners are sorted by RankBefore and truncated to `top_n`.
RankedRecords RankRecords(const std::vector<RankRecord>& records,
                          const ScoreWeights& weights, double alpha, int top_n);

}  // namespace charles

#endif  // CHARLES_CORE_RANKING_H_
