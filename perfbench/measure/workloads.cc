#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "workload/billionaires_gen.h"
#include "workload/employee_gen.h"
#include "workload/montgomery_gen.h"

namespace perfbench {

using charles::CharlesOptions;
using charles::ChangeSummary;
using charles::EngineContext;
using charles::EngineContextOptions;
using charles::Result;
using charles::SummaryList;
using charles::Table;

namespace {

/// splitmix64: decorrelates the per-pair generator seeds of one run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t ScaledRows(int64_t nominal, double scale) {
  return std::max<int64_t>(200, std::llround(static_cast<double>(nominal) * scale));
}

charles::PolicyApplicationOptions CentsApplication(uint64_t seed) {
  charles::PolicyApplicationOptions apply;
  apply.round_to = 0.01;
  apply.seed = seed;
  return apply;
}

Pair MakeEmployees(int64_t rows, uint64_t seed) {
  charles::EmployeeGenOptions gen;
  gen.num_rows = rows;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  gen.seed = DeriveSeed(seed, 1);
  Pair pair;
  pair.name = "employees";
  pair.source = charles::GenerateEmployees(gen).ValueOrDie();
  pair.truth = charles::MakeEmployeeBonusPolicy();
  pair.target =
      pair.truth.Apply(pair.source, CentsApplication(DeriveSeed(seed, 2))).ValueOrDie();
  pair.target_attribute = "bonus";
  pair.key = "emp_id";
  return pair;
}

Pair MakeBillionaires(int64_t rows, uint64_t seed) {
  charles::BillionairesGenOptions gen;
  gen.num_rows = rows;
  gen.seed = DeriveSeed(seed, 3);
  Pair pair;
  pair.name = "billionaires";
  pair.source = charles::GenerateBillionaires(gen).ValueOrDie();
  pair.truth = charles::MakeMarketPolicy();
  pair.target =
      pair.truth.Apply(pair.source, CentsApplication(DeriveSeed(seed, 4))).ValueOrDie();
  pair.target_attribute = "net_worth";
  pair.key = "person_id";
  return pair;
}

Pair MakeMontgomery(int64_t rows, uint64_t seed) {
  charles::MontgomeryGenOptions gen;
  gen.num_rows = rows;
  gen.seed = DeriveSeed(seed, 5);
  Pair pair;
  pair.name = "montgomery";
  pair.source = charles::GenerateMontgomery2016(gen).ValueOrDie();
  pair.truth = charles::MakeMontgomeryPayPolicy();
  pair.target = charles::GenerateMontgomery2017(pair.source,
                                                CentsApplication(DeriveSeed(seed, 6)))
                    .ValueOrDie();
  pair.target_attribute = "base_salary";
  pair.key = "employee_id";
  return pair;
}

std::array<double, 8> ScoreBits(const ChangeSummary& summary) {
  const charles::ScoreBreakdown& s = summary.scores();
  return {s.accuracy,     s.interpretability,     s.score,
          s.summary_size, s.condition_simplicity, s.transform_simplicity,
          s.coverage,     s.normality};
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  const std::vector<double> session_alphas = {0.2, 0.5, 0.8};
  WorkloadSpec out;
  out.name = name;
  if (name == "cold_large") {
    // A fresh engine per Find(): per-run pool, run-local cache only.
    out.pairs = {{MakeEmployees, 40000, 0, {0.5}},
                 {MakeEmployees, 40000, 1, {0.5}},
                 {MakeEmployees, 40000, 2, {0.5}}};
  } else if (name == "warm_session") {
    out.use_context = true;
    out.pairs = {{MakeEmployees, 8000, 0, session_alphas},
                 {MakeEmployees, 8000, 1, session_alphas},
                 {MakeEmployees, 8000, 2, session_alphas}};
  } else if (name == "serving_mixed") {
    out.clients = 2;
    out.use_context = true;
    out.num_shards = 2;
    out.max_cache_entries = 8000;
    out.max_concurrent_runs = 2;
    out.pairs = {{MakeEmployees, 8000, 0, {0.5}},
                 {MakeBillionaires, 8000, 0, {0.5}},
                 {MakeMontgomery, 9000, 0, {0.5}}};
  } else {
    return false;
  }
  *spec = out;
  return true;
}

CharlesOptions RequestOptions(const Setup& setup, const Request& request) {
  const Pair& pair = setup.pairs[request.pair];
  CharlesOptions options;
  options.target_attribute = pair.target_attribute;
  options.key_columns = {pair.key};
  options.alpha = request.alpha;
  options.num_threads = kEngineThreads;
  options.num_shards = setup.spec.num_shards;
  options.shard_backend = charles::ShardBackendKind::kInProcess;
  options.max_cache_entries = setup.spec.max_cache_entries;
  return options;
}

CharlesOptions ReferenceOptions(const Setup& setup, const Request& request) {
  CharlesOptions options = RequestOptions(setup, request);
  options.num_threads = 1;
  options.num_shards = 0;
  return options;
}

Reference MakeReference(const SummaryList& result) {
  Reference reference;
  for (const ChangeSummary& summary : result.summaries) {
    reference.signatures.push_back(summary.Signature());
    reference.scores.push_back(ScoreBits(summary));
  }
  reference.leaf_fits_computed = result.leaf_fits_computed;
  reference.leaf_fits_reused = result.leaf_fits_reused;
  return reference;
}

bool MatchesReference(const Result<SummaryList>& result, const Reference& reference) {
  return result.ok() && MatchesReference(*result, reference);
}

bool MatchesReference(const SummaryList& result, const Reference& reference) {
  const std::vector<ChangeSummary>& summaries = result.summaries;
  if (summaries.empty() || summaries.size() != reference.signatures.size()) {
    return false;
  }
  for (size_t i = 0; i < summaries.size(); ++i) {
    std::array<double, 8> bits = ScoreBits(summaries[i]);
    for (double v : bits) {
      if (std::isnan(v)) return false;
    }
    if (std::memcmp(bits.data(), reference.scores[i].data(), sizeof(bits)) != 0) {
      return false;
    }
    if (summaries[i].Signature() != reference.signatures[i]) return false;
  }
  return true;
}

Setup MakeSetup(const WorkloadSpec& spec, uint64_t seed, double scale,
                bool corrupt_reference) {
  Setup setup;
  setup.spec = spec;
  auto step_start = std::chrono::steady_clock::now();
  auto end_step = [&](const char* name) {
    setup.setup_steps.emplace_back(name, SecondsSince(step_start));
    step_start = std::chrono::steady_clock::now();
  };

  for (const PairPlan& plan : spec.pairs) {
    const size_t pair_index = setup.pairs.size();
    setup.pairs.push_back(
        plan.make(ScaledRows(plan.rows, scale), DeriveSeed(seed, 100 + plan.variant)));
    for (double alpha : plan.alphas) setup.requests.push_back({pair_index, alpha});
  }
  end_step("generate");

  // Cold references, one per request, on at most 3 threads (every engine
  // runs serially; with the main thread waiting, 3 cores are busy).
  setup.references.resize(setup.requests.size());
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    const size_t workers = std::min<size_t>(3, setup.requests.size());
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&setup, &next] {
        for (size_t r = next++; r < setup.requests.size(); r = next++) {
          const Request& request = setup.requests[r];
          const Pair& pair = setup.pairs[request.pair];
          SummaryList cold =
              charles::SummarizeChanges(pair.source, pair.target,
                                        ReferenceOptions(setup, request))
                  .ValueOrDie();
          CHARLES_CHECK(!cold.summaries.empty());
          setup.references[r] = MakeReference(cold);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (corrupt_reference) {
    uint64_t bits = 0;
    std::memcpy(&bits, &setup.references[0].scores[0][2], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&setup.references[0].scores[0][2], &bits, sizeof(bits));
  }
  end_step("references");

  // The context, warmed with one cold Find() per pair (its first request),
  // so the timed run starts from the steady state a session or server sees.
  if (spec.use_context) {
    EngineContextOptions ctx;
    ctx.num_threads = kEngineThreads;
    ctx.max_cache_entries = spec.max_cache_entries;
    ctx.max_concurrent_runs = spec.max_concurrent_runs;
    ctx.admission = charles::AdmissionPolicy::kQueue;
    setup.context = std::make_unique<EngineContext>(ctx);
    for (size_t r = 0; r < setup.requests.size(); ++r) {
      if (r > 0 && setup.requests[r].pair == setup.requests[r - 1].pair) continue;
      const Pair& pair = setup.pairs[setup.requests[r].pair];
      Result<SummaryList> result = charles::SummarizeChanges(
          pair.source, pair.target, RequestOptions(setup, setup.requests[r]),
          setup.context.get());
      ++setup.warmup_attempted;
      if (!MatchesReference(result, setup.references[r])) ++setup.warmup_failed;
    }
    end_step("warm-up");
  }
  return setup;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

LoopResult RunClosedLoop(const Setup& setup, double seconds, const OneFind& one_find) {
  const size_t cycle = setup.requests.size();
  const int clients = setup.spec.clients;
  std::vector<std::vector<FindRecord>> per_client(static_cast<size_t>(clients));
  // Whether cycle k runs is decided once, by the first client to reach its
  // start, so every client runs the same number of cycles.
  std::mutex mu;
  std::vector<bool> cycle_runs;  // guarded by mu
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<FindRecord>& out = per_client[static_cast<size_t>(c)];
      for (size_t k = 0;; ++k) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (cycle_runs.size() == k) cycle_runs.push_back(SecondsSince(start) < seconds);
          if (!cycle_runs[k]) break;
        }
        for (size_t i = 0; i < cycle; ++i) {
          FindRecord record;
          record.request = i;
          record.pair = setup.requests[i].pair;
          one_find(record.request, &record);
          out.push_back(std::move(record));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult loop;
  loop.wall_s = SecondsSince(start);
  for (std::vector<FindRecord>& records : per_client) {
    for (FindRecord& record : records) loop.finds.push_back(std::move(record));
  }
  return loop;
}

void ScoreRecovery(const Setup& setup, std::vector<FindRecord>* finds) {
  for (FindRecord& record : *finds) {
    record.f1 = 0.0;
    if (!record.has_top) continue;
    const Pair& pair = setup.pairs[setup.requests[record.request].pair];
    Result<charles::RecoveryReport> report =
        charles::EvaluateRecovery(pair.truth, record.top, pair.source);
    if (report.ok()) record.f1 = report->f1;
  }
}

}  // namespace perfbench
