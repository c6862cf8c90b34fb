#ifndef PERFBENCH_MEASURE_TRACED_H_
#define PERFBENCH_MEASURE_TRACED_H_

/// \file
/// \brief The traced run: Find() driven stage by stage on one RunState (as
/// tests/run_pipeline_test.cc drives it), with the benchmark's own spans
/// around each stage, plus single-threaded replays of the layer functions
/// phases 1 and 2 spend their time in.
///
/// Every span here is recorded by the benchmark, from outside the engine;
/// the only engine-side spans that appear under them are the coordinator
/// round/dispatch spans the distributed layer already records.

#include <array>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

/// The six RunPipeline stages, by the metric names they report under.
inline constexpr std::array<const char*, 6> kStageNames = {
    "diff.align", "setup.shortlist", "phase1.signals",
    "phase2.trees", "phase3.fits", "rank.stream"};

/// One traced Find(): stage wall times, RSS at the phase boundaries, and
/// the per-Find counters the result and RunState carry.
struct TracedSample {
  size_t request = 0;
  bool ok = false;
  double find_s = 0.0;  ///< the root span: engine construction to teardown
  std::array<double, 6> stage_s{};
  std::array<double, 3> rss_mb{};  ///< after phases 1, 2, 3
  std::map<std::string, double> counts;
};

/// Runs `request` under `options` stage by stage, inside a root span named
/// `root` in `recorder`, attached to `context` (or with a per-run pool when
/// it is null).
TracedSample TracedFind(const Setup& setup, size_t request,
                        const charles::CharlesOptions& options,
                        charles::EngineContext* context,
                        charles::obs::TraceRecorder* recorder, const char* root);

/// Seconds of each layer-function replay, summed over the call sites one
/// Find() of `request` makes (or one call, for the k-means fit).
struct ReplaySeconds {
  double cluster_residuals_s = 0.0;
  double kmeans_fit_s = 0.0;
  double induce_candidates_s = 0.0;
};

/// Re-derives the phase-1/2 products of `request` (untimed), then replays
/// PartitionFinder::ClusterResiduals over its T-subsets, one KMeans::Fit on
/// the n×1 Δy signal at k = max_clusters, and
/// PartitionFinder::InduceCandidates over its C-subsets — each serially,
/// under its own span.
ReplaySeconds ReplayLayers(const Setup& setup, size_t request,
                           charles::obs::TraceRecorder* recorder);

/// Self time and count of every span name in `recorder`: a span's duration
/// minus the union of its children's intervals.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> SelfTimes(const charles::obs::TraceRecorder& recorder);

/// Current resident set size in MiB (from /proc/self/statm).
double CurrentRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_TRACED_H_
