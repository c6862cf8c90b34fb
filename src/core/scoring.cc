#include "core/scoring.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/normality.h"
#include "linalg/stats.h"

namespace charles {

double BlendInterpretability(const ScoreBreakdown& subscores,
                             const ScoreWeights& weights, int num_cts) {
  const ScoreWeights& w = weights;
  double weight_sum = w.summary_size + w.condition_simplicity + w.transform_simplicity +
                      w.coverage + w.normality;
  double interpretability =
      (w.summary_size * subscores.summary_size +
       w.condition_simplicity * subscores.condition_simplicity +
       w.transform_simplicity * subscores.transform_simplicity +
       w.coverage * subscores.coverage + w.normality * subscores.normality) /
      weight_sum;
  // Readability budget: past ~10 CTs a summary is a change log, not an
  // explanation — no per-CT simplicity can compensate (this is what sinks
  // the exhaustive cell-level diff in experiment E6). Within the budget the
  // factor is 1 and the weighted blend above is untouched.
  constexpr double kReadabilityBudget = 10.0;
  if (static_cast<double>(num_cts) > kReadabilityBudget) {
    interpretability *= kReadabilityBudget / static_cast<double>(num_cts);
  }
  return interpretability;
}

double BlendScore(double accuracy, double interpretability, double alpha) {
  return alpha * accuracy + (1.0 - alpha) * interpretability;
}

Scorer::Scorer(const CharlesOptions& options, std::vector<double> y_old,
               std::vector<double> y_new)
    : options_(options),  // copied: see header
      y_old_(std::move(y_old)),
      y_new_(std::move(y_new)) {
  CHARLES_CHECK_EQ(y_old_.size(), y_new_.size());
  baseline_l1_ = L1Distance(y_old_, y_new_);
  double sum = 0.0;
  for (double v : y_new_) sum += std::abs(v);
  target_scale_ = y_new_.empty() ? 1.0 : std::max(sum / static_cast<double>(y_new_.size()), 1e-12);
  // "Exact" means practically right: within 0.1% of the target's scale (or
  // the configured tolerance if larger). A hard zero band would make the
  // exactness term collapse under any measurement noise, at which point
  // partition quality stops influencing accuracy at all.
  constexpr double kExactnessBand = 0.001;
  exact_tolerance_ =
      std::max(options_.numeric_tolerance, kExactnessBand * target_scale_);
}

double Scorer::Accuracy(const std::vector<double>& y_hat) const {
  CHARLES_CHECK_EQ(y_hat.size(), y_new_.size());
  // The row scan is itself a (degenerate, single-chain) ScorePartials fold:
  // L1Distance sums |ŷᵢ − y_newᵢ| in index order from zero, exactly the
  // chain Accumulate replays, so this wrapper and AccuracyFromPartials
  // agree bit-for-bit whenever the partials were folded as one chain.
  ScorePartials partials;
  for (size_t i = 0; i < y_hat.size(); ++i) {
    partials.Accumulate(y_new_[i], y_hat[i], exact_tolerance_);
  }
  return AccuracyFromPartials(partials);
}

double Scorer::AccuracyFromPartials(const ScorePartials& partials) const {
  const double l1 = partials.abs_error_sum;
  double exactness = partials.n > 0
                         ? static_cast<double>(partials.exact_count) /
                               static_cast<double>(partials.n)
                         : 0.0;
  double l1_explained;
  if (baseline_l1_ > 1e-12) {
    l1_explained = std::clamp(1.0 - l1 / baseline_l1_, 0.0, 1.0);
  } else {
    // Nothing changed between the snapshots: a summary is accurate iff it
    // also predicts "no change" (scale-normalized inverse distance).
    double mae =
        partials.n > 0 ? l1 / static_cast<double>(partials.n) : 0.0;
    l1_explained = 1.0 / (1.0 + mae / target_scale_);
  }
  return 0.5 * l1_explained + 0.5 * exactness;
}

ScoreBreakdown Scorer::InterpretabilityOnly(const ChangeSummary& summary) const {
  ScoreBreakdown breakdown;
  const auto& cts = summary.cts();
  int64_t n = static_cast<int64_t>(y_old_.size());

  if (cts.empty()) {
    // The empty summary explains nothing but is maximally simple.
    breakdown.summary_size = 1.0;
    breakdown.condition_simplicity = 1.0;
    breakdown.transform_simplicity = 1.0;
    breakdown.coverage = 0.0;
    breakdown.normality = 1.0;
  } else {
    breakdown.summary_size =
        1.0 / (1.0 + 0.25 * (static_cast<double>(cts.size()) - 1.0));

    double cond_total = 0.0;
    double tran_total = 0.0;
    double norm_total = 0.0;
    int64_t covered = 0;
    for (const ConditionalTransform& ct : cts) {
      cond_total += 1.0 / (1.0 + 0.5 * static_cast<double>(ct.condition->NumDescriptors()));
      tran_total += 1.0 / (1.0 + 0.5 * static_cast<double>(ct.transform.Complexity()));
      double transform_normality = ct.transform.is_no_change()
                                       ? 1.0
                                       : ModelNormality(ct.transform.model());
      norm_total += 0.5 * (ConditionNormality(*ct.condition) + transform_normality);
      covered += ct.rows.size();
    }
    double count = static_cast<double>(cts.size());
    breakdown.condition_simplicity = cond_total / count;
    breakdown.transform_simplicity = tran_total / count;
    breakdown.normality = norm_total / count;
    // Coverage: the fraction of rows some CT explains. Engine-built
    // summaries partition the data (coverage 1); the term differentiates
    // partial summaries such as cell-diff baselines.
    breakdown.coverage =
        n > 0 ? std::min(1.0, static_cast<double>(covered) / static_cast<double>(n)) : 0.0;
  }

  breakdown.interpretability =
      BlendInterpretability(breakdown, options_.weights, summary.num_cts());
  return breakdown;
}

ScoreBreakdown Scorer::Score(const ChangeSummary& summary,
                             const std::vector<double>& y_hat) const {
  ScoreBreakdown breakdown = InterpretabilityOnly(summary);
  breakdown.accuracy = Accuracy(y_hat);
  breakdown.score =
      BlendScore(breakdown.accuracy, breakdown.interpretability, options_.alpha);
  return breakdown;
}

ScoreBreakdown Scorer::ScoreFromPartials(const ChangeSummary& summary,
                                         const ScorePartials& partials) const {
  CHARLES_CHECK_EQ(static_cast<size_t>(partials.n), y_new_.size());
  ScoreBreakdown breakdown = InterpretabilityOnly(summary);
  breakdown.accuracy = AccuracyFromPartials(partials);
  breakdown.score =
      BlendScore(breakdown.accuracy, breakdown.interpretability, options_.alpha);
  return breakdown;
}

Result<ScoreBreakdown> Scorer::ApplyAndScore(const ChangeSummary& summary,
                                             const Table& source) const {
  CHARLES_ASSIGN_OR_RETURN(std::vector<double> y_hat, summary.Apply(source));
  return Score(summary, y_hat);
}

}  // namespace charles
