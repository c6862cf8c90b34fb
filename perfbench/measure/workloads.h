#ifndef PERFBENCH_MEASURE_WORKLOADS_H_
#define PERFBENCH_MEASURE_WORKLOADS_H_

/// \file
/// \brief The benchmark's workloads: seeded snapshot pairs, the requests a
/// client cycles through, the cold references every answer is checked
/// against, and the closed-loop client that times Find().
///
/// The engine only ever sees the generated tables. Everything here runs
/// through the public API (SummarizeChanges, with or without an
/// EngineContext); the traced stage-by-stage run lives in traced.h.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/charles.h"
#include "workload/policy.h"

namespace perfbench {

/// Engine threads of every workload: the per-run pool (no context) or the
/// context's pool. With at most two clients, a workload uses ≤ 4 threads.
inline constexpr int kEngineThreads = 2;

/// One generated snapshot pair with its planted policy.
struct Pair {
  std::string name;  ///< employees | billionaires | montgomery
  charles::Table source;
  charles::Table target;
  charles::Policy truth;
  std::string target_attribute;
  std::string key;
};

/// A pair a workload cycles through and the α values it is asked at.
/// Variants of one generator draw from distinct sub-seeds of the run seed.
struct PairPlan {
  Pair (*make)(int64_t rows, uint64_t seed) = nullptr;
  int64_t rows = 0;  ///< nominal; scaled by --scale
  uint64_t variant = 0;
  std::vector<double> alphas;
};

/// How a workload runs: its pairs, clients, context, shards, cache bound.
struct WorkloadSpec {
  std::string name;
  std::vector<PairPlan> pairs;
  int clients = 1;
  bool use_context = false;
  int num_shards = 0;
  int64_t max_cache_entries = 0;  ///< 0 = unbounded
  int max_concurrent_runs = 0;    ///< context admission bound (0 = none)
};

/// Looks up one of cold_large, warm_session, serving_mixed.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// One distinct request: a pair at one α.
struct Request {
  size_t pair = 0;
  double alpha = 0.5;
};

/// The cold answer one request must reproduce bit-for-bit.
struct Reference {
  std::vector<std::string> signatures;
  /// Every ScoreBreakdown field of every ranked summary, in rank order.
  std::vector<std::array<double, 8>> scores;
  /// Leaf-fit counters of the one-thread pass.
  int64_t leaf_fits_computed = 0;
  int64_t leaf_fits_reused = 0;
};

/// Everything set-up produces; the timed run only reads it (the context's
/// caches excepted).
struct Setup {
  WorkloadSpec spec;
  std::vector<Pair> pairs;
  std::vector<Request> requests;
  std::vector<Reference> references;
  std::unique_ptr<charles::EngineContext> context;
  int64_t warmup_attempted = 0;
  int64_t warmup_failed = 0;
  /// Wall time of each set-up step (generate, references, warm-up).
  std::vector<std::pair<std::string, double>> setup_steps;
};

/// Sets up a workload in three timed steps: generates its pairs from `seed`
/// at `scale` × the nominal row counts, computes one cold reference per
/// request (no context, one thread, unsharded), and — when the workload has
/// a context — builds it and warms it with one Find() per pair.
/// `corrupt_reference` flips the low bit of the first reference's top score
/// (a self-test of the correctness gate).
Setup MakeSetup(const WorkloadSpec& spec, uint64_t seed, double scale,
                bool corrupt_reference);

/// Engine options of `request` as the workload runs it.
charles::CharlesOptions RequestOptions(const Setup& setup, const Request& request);

/// The reference configuration of the same request.
charles::CharlesOptions ReferenceOptions(const Setup& setup, const Request& request);

/// True when `result` is OK, non-empty, NaN-free, and bit-identical to
/// `reference` in ranked signatures, count and every score.
bool MatchesReference(const charles::Result<charles::SummaryList>& result,
                      const Reference& reference);
bool MatchesReference(const charles::SummaryList& result, const Reference& reference);

/// Captures a reference from a cold result (which must be OK).
Reference MakeReference(const charles::SummaryList& result);

/// One timed Find() of the closed loop.
struct FindRecord {
  size_t request = 0;
  size_t pair = 0;  ///< the request's pair
  double latency_s = 0.0;
  bool ok = false;
  bool has_top = false;
  charles::ChangeSummary top;
  double f1 = 0.0;
};

/// Result of one closed-loop phase.
struct LoopResult {
  std::vector<FindRecord> finds;
  double wall_s = 0.0;
};

/// Runs the closed loop: each client cycles through every request in order,
/// starting together on the first, and sends its next Find() only when the
/// previous one returned. Whether cycle k runs is decided once, by the first
/// client to reach it, while `seconds` have not elapsed — so every client
/// completes the same whole number of cycles and every request weighs the
/// same. `one_find` runs and checks one request and fills the record's
/// latency/ok/top.
using OneFind = std::function<void(size_t request, FindRecord* record)>;
LoopResult RunClosedLoop(const Setup& setup, double seconds, const OneFind& one_find);

/// Scores every record's top summary against its pair's planted policy
/// (EvaluateRecovery at its default options); records without a top
/// summary score 0.
void ScoreRecovery(const Setup& setup, std::vector<FindRecord>* finds);

/// Seconds elapsed on the steady clock since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_WORKLOADS_H_
