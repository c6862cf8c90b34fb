#include "traced.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/partition_finder.h"
#include "core/run_pipeline.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "parallel/thread_pool.h"

namespace perfbench {

using charles::CharlesEngine;
using charles::RunPipeline;
using charles::RunState;
using charles::obs::Span;
using charles::obs::TraceRecorder;

namespace {

using Clock = std::chrono::steady_clock;

/// An engine with one RunState over it, wired the way RunPipeline::Run
/// wires a run: admission and pool from the context when attached, else a
/// per-run pool. The engine is declared first so it outlives the state.
struct StagedRun {
  std::unique_ptr<CharlesEngine> engine;
  std::unique_ptr<RunState> state;
};

StagedRun StartRun(const charles::CharlesOptions& options,
                   charles::EngineContext* context) {
  CHARLES_CHECK_OK(options.Validate());
  StagedRun run;
  run.engine = std::make_unique<CharlesEngine>(options, context);
  return run;
}

void AttachResources(RunState& state, charles::EngineContext* context) {
  if (context != nullptr) {
    charles::Result<charles::EngineContext::RunSlot> slot = context->AdmitRun();
    CHARLES_CHECK_OK(slot.status());
    state.run_slot = std::move(*slot);
    state.num_threads = context->num_threads();
    state.pool = context->pool();
  } else {
    state.num_threads = state.options.num_threads;
    if (state.num_threads > 1) {
      state.owned_pool = std::make_unique<charles::ThreadPool>(state.num_threads);
      state.pool = state.owned_pool.get();
    }
  }
  state.result.threads_used = state.pool != nullptr ? state.num_threads : 1;
}

double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double CurrentRssMb() {
  long pages_total = 0;
  long pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

TracedSample TracedFind(const Setup& setup, size_t request,
                        const charles::CharlesOptions& options,
                        charles::EngineContext* context, TraceRecorder* recorder,
                        const char* root_name) {
  const Pair& pair = setup.pairs[setup.requests[request].pair];
  TracedSample sample;
  sample.request = request;
  size_t stage_count = 0;
  const RunPipeline::StageSpec* stages = RunPipeline::Stages(&stage_count);
  CHARLES_CHECK(stage_count == kStageNames.size());

  // The root span covers what a client times around SummarizeChanges:
  // engine and state construction, the stages, and teardown.
  auto find_start = Clock::now();
  {
    Span root(recorder, root_name);
    StagedRun run = StartRun(options, context);
    run.state = std::make_unique<RunState>(*run.engine, pair.source, pair.target,
                                           /*stream=*/nullptr, /*stop=*/nullptr);
    RunState& state = *run.state;
    AttachResources(state, context);
    bool ok = true;
    for (size_t s = 0; s < stage_count && ok; ++s) {
      auto stage_start = Clock::now();
      {
        Span span(recorder, kStageNames[s]);
        charles::obs::RunIdScope run_scope(state.run_id);
        ok = stages[s].fn(state).ok();
      }
      sample.stage_s[s] = Elapsed(stage_start);
      if (s >= 2 && s <= 4) sample.rss_mb[s - 2] = CurrentRssMb();
    }
    const charles::SummaryList& result = state.result;
    sample.ok = ok && MatchesReference(result, setup.references[request]);
    sample.counts = {
        {"setup.condition_subsets", static_cast<double>(result.condition_subsets)},
        {"setup.transform_subsets", static_cast<double>(result.transform_subsets)},
        {"phase1.labelings", static_cast<double>(result.labelings)},
        {"phase2.partitions", static_cast<double>(result.partitions)},
        {"phase3.work_items", static_cast<double>(state.work_items)},
        {"phase3.score_leaf_folds", static_cast<double>(result.score_leaf_folds)},
        {"phase3.leaf_fits_computed", static_cast<double>(result.leaf_fits_computed)},
        {"phase3.leaf_fits_reused", static_cast<double>(result.leaf_fits_reused)},
        {"rank.candidates_evaluated", static_cast<double>(result.candidates_evaluated)},
        {"rank.candidates_deduped", static_cast<double>(result.candidates_deduped)},
        {"distributed.shard_s", result.shard_seconds},
        {"distributed.signal_round_s", result.shard_signal_seconds},
        {"distributed.moments_round_s", result.shard_moments_seconds},
        {"distributed.score_round_s", result.shard_score_seconds},
        {"distributed.tasks_executed", static_cast<double>(result.shard_tasks_executed)},
        {"distributed.rows_scanned", static_cast<double>(result.shard_rows_scanned)},
        {"distributed.moment_leaves_elided",
         static_cast<double>(result.shard_moment_leaves_elided)},
    };
    run.state.reset();  // teardown (pool join, slot release) is part of a Find
    run.engine.reset();
  }
  sample.find_s = Elapsed(find_start);
  return sample;
}

ReplaySeconds ReplayLayers(const Setup& setup, size_t request, TraceRecorder* recorder) {
  const Request& rq = setup.requests[request];
  const Pair& pair = setup.pairs[rq.pair];
  // Setup and phase-1 products from a context-free staged run (untimed; the
  // replays below only read them).
  StagedRun run = StartRun(RequestOptions(setup, rq), nullptr);
  run.state = std::make_unique<RunState>(*run.engine, pair.source, pair.target,
                                         nullptr, nullptr);
  RunState& state = *run.state;
  AttachResources(state, nullptr);
  CHARLES_CHECK_OK(RunPipeline::DiffAlign(state));
  CHARLES_CHECK_OK(RunPipeline::Setup(state));
  CHARLES_CHECK_OK(RunPipeline::Phase1Signals(state));
  state.owned_pool.reset();
  state.pool = nullptr;
  const charles::CharlesOptions& options = state.options;

  ReplaySeconds out;
  {
    Span span(recorder, "partition_finder.cluster_residuals");
    auto start = Clock::now();
    for (size_t ti = 0; ti < state.t_subsets.size(); ++ti) {
      charles::PartitionFinder::Input input;
      input.source = state.analysis;
      input.y_old = &state.y_old;
      input.y_new = &state.y_new;
      input.column_cache = &state.tran_columns;
      input.shortlist_stats = state.shortlist_stats.get();
      input.shortlist_subset = state.t_subsets[ti];
      for (int t : state.t_subsets[ti]) {
        input.transform_attrs.push_back(state.tran_names[static_cast<size_t>(t)]);
      }
      CHARLES_CHECK_OK(charles::PartitionFinder::ClusterResiduals(
                           input, options, /*include_delta_signals=*/ti == 0)
                           .status());
    }
    out.cluster_residuals_s = Elapsed(start);
  }
  {
    const int64_t n = static_cast<int64_t>(state.y_new.size());
    charles::Matrix delta(n, 1);
    for (int64_t i = 0; i < n; ++i) {
      delta.At(i, 0) = state.y_new[static_cast<size_t>(i)] -
                       state.y_old[static_cast<size_t>(i)];
    }
    charles::KMeansOptions kmeans;
    kmeans.seed = options.seed;
    const int k = static_cast<int>(std::min<int64_t>(options.max_clusters, n));
    Span span(recorder, "ml.kmeans.fit");
    auto start = Clock::now();
    CHARLES_CHECK_OK(charles::KMeans::Fit(delta, k, kmeans).status());
    out.kmeans_fit_s = Elapsed(start);
  }
  {
    charles::Result<charles::TreeAttributeCache> cache =
        charles::TreeAttributeCache::Build(*state.analysis, state.cond_indices);
    CHARLES_CHECK_OK(cache.status());
    Span span(recorder, "partition_finder.induce_candidates");
    auto start = Clock::now();
    for (const std::vector<int>& c_subset : state.c_subsets) {
      std::vector<int> attr_indices;
      for (int c : c_subset) {
        attr_indices.push_back(state.cond_indices[static_cast<size_t>(c)]);
      }
      CHARLES_CHECK_OK(charles::PartitionFinder::InduceCandidates(
                           *state.analysis, state.labelings, attr_indices, options,
                           &*cache)
                           .status());
    }
    out.induce_candidates_s = Elapsed(start);
  }
  return out;
}

std::map<std::string, SpanTotals> SelfTimes(const TraceRecorder& recorder) {
  std::vector<charles::obs::SpanRecord> spans = recorder.Snapshot();
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const charles::obs::SpanRecord& span : spans) {
    if (span.parent != 0 && span.dur_ns >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.start_ns + span.dur_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const charles::obs::SpanRecord& span : spans) {
    if (span.dur_ns < 0) continue;
    const int64_t begin = span.start_ns;
    const int64_t end = span.start_ns + span.dur_ns;
    // Union of the children's intervals, clipped to the span: parallel
    // dispatch spans overlap one another.
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = begin;
      for (const auto& [lo, hi] : intervals) {
        const int64_t from = std::max(lo, cursor);
        const int64_t to = std::min(hi, end);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    SpanTotals& t = totals[span.name];
    t.count += 1;
    t.total_s += static_cast<double>(span.dur_ns) * 1e-9;
    t.self_s += static_cast<double>(span.dur_ns - covered) * 1e-9;
  }
  return totals;
}

}  // namespace perfbench
