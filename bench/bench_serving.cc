/// \file
/// Experiment O1 (ISSUE 9 / ROADMAP "observability"): serving saturation.
///
/// One long-lived EngineContext (shared pool + cross-run leaf-fit cache,
/// bounded admission) answers sustained concurrent Find() load from N client
/// threads. Each level of the sweep records throughput, the request-latency
/// distribution (p50/p90/p99 from an obs::Histogram — the same instrument
/// the engine's own metrics use), and the cache trajectory (hit/miss deltas
/// against the context's fit cache and stage memo), so the artifact shows
/// the cold->warm transition and how latency degrades as clients
/// oversubscribe the pool. Warm requests repeat the cold one, so each is a
/// stage-memo re-rank that reads only the winners' fits from the fit cache.
///
/// Every request's ranking is checked bit-identical to a serial baseline —
/// concurrency that changes an answer is a bug, not a throughput result.
/// Results land in BENCH_serving.json (working directory), including a full
/// MetricsRegistry snapshot so the engine-side instruments (admission
/// counters, cache gauges, run-latency histogram) are captured alongside
/// the client-side view. `--smoke` runs a reduced sweep and exits non-zero
/// if any request diverges from the baseline, a queued admission was
/// rejected, the warm levels stop hitting the fit cache or the stage memo,
/// or concurrent p99 blows
/// past a generous multiple of the warm serial mean — the CI tripwires for
/// the serving path.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/engine_context.h"
#include "obs/metrics.h"
#include "workload/employee_gen.h"

namespace charles {
namespace bench {
namespace {

struct Baseline {
  std::string signature;
  double score = 0.0;
  size_t count = 0;
};

struct ServingRow {
  int clients = 1;
  int64_t requests = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  int64_t cache_hits_delta = 0;    ///< context-cache hits during the level
  int64_t cache_misses_delta = 0;  ///< context-cache misses during the level
  int64_t cache_entries = 0;       ///< fits resident after the level
  int64_t memo_hits_delta = 0;     ///< stage-memo hits during the level
  int64_t queued_delta = 0;        ///< admissions that waited for a slot
  int64_t rejected_delta = 0;      ///< admissions refused (must stay 0: kQueue)
  bool identical = true;           ///< every ranking matched the baseline
};

/// One request against the shared context; returns its latency and checks
/// the ranking against the serial baseline.
double ServeOne(const Table& source, const Table& target,
                const CharlesOptions& options, EngineContext* context,
                const Baseline& baseline, std::atomic<bool>* identical) {
  auto start = std::chrono::steady_clock::now();
  SummaryList result =
      SummarizeChanges(source, target, options, context).ValueOrDie();
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  CHARLES_CHECK(!result.summaries.empty());
  double score = result.summaries[0].scores().score;
  if (result.summaries[0].Signature() != baseline.signature ||
      std::memcmp(&score, &baseline.score, sizeof(double)) != 0 ||
      result.summaries.size() != baseline.count) {
    identical->store(false, std::memory_order_relaxed);
  }
  return elapsed;
}

/// Runs one saturation level: `clients` threads, each issuing
/// `requests_per_client` back-to-back Find() calls against the context.
ServingRow RunLevel(const Table& source, const Table& target,
                    const CharlesOptions& options, EngineContext* context,
                    int clients, int requests_per_client,
                    const Baseline& baseline) {
  obs::Histogram latency(obs::Histogram::DefaultLatencyBounds());
  std::atomic<bool> identical{true};
  const int64_t hits_before = context->leaf_cache_hits();
  const int64_t misses_before = context->leaf_cache_misses();
  const int64_t memo_hits_before = context->stage_memo_hits();
  const int64_t queued_before = context->runs_queued();
  const int64_t rejected_before = context->runs_rejected();

  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&]() {
      for (int i = 0; i < requests_per_client; ++i) {
        latency.Observe(
            ServeOne(source, target, options, context, baseline, &identical));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ServingRow row;
  row.clients = clients;
  row.requests = static_cast<int64_t>(clients) * requests_per_client;
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();
  row.throughput_rps =
      row.wall_s > 0 ? static_cast<double>(row.requests) / row.wall_s : 0.0;
  row.mean_s =
      latency.Count() > 0 ? latency.Sum() / static_cast<double>(latency.Count())
                          : 0.0;
  row.p50_s = latency.P50();
  row.p90_s = latency.P90();
  row.p99_s = latency.P99();
  row.cache_hits_delta = context->leaf_cache_hits() - hits_before;
  row.cache_misses_delta = context->leaf_cache_misses() - misses_before;
  row.cache_entries = static_cast<int64_t>(context->leaf_cache_entries());
  row.memo_hits_delta = context->stage_memo_hits() - memo_hits_before;
  row.queued_delta = context->runs_queued() - queued_before;
  row.rejected_delta = context->runs_rejected() - rejected_before;
  row.identical = identical.load(std::memory_order_relaxed);
  return row;
}

struct SweepResult {
  double cold_s = 0.0;  ///< the one cold request that warmed the context
  std::vector<ServingRow> levels;
};

SweepResult RunSweep(bool smoke) {
  EmployeeGenOptions gen;
  gen.num_rows = smoke ? 2000 : 8000;
  gen.num_decoy_numeric = 1;
  gen.num_decoy_categorical = 1;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();

  CharlesOptions options = DefaultBenchOptions("bonus", "emp_id");
  options.num_threads = 2;

  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  ctx_options.max_concurrent_runs = 2;  // oversubscribed levels must queue
  ctx_options.admission = AdmissionPolicy::kQueue;
  EngineContext context(ctx_options);

  // The cold request: pays every leaf fit once, warms the context cache, and
  // pins the baseline every later ranking is compared against bit-for-bit.
  SweepResult sweep;
  Baseline baseline;
  {
    auto start = std::chrono::steady_clock::now();
    SummaryList first =
        SummarizeChanges(source, target, options, &context).ValueOrDie();
    sweep.cold_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    CHARLES_CHECK(!first.summaries.empty());
    baseline.signature = first.summaries[0].Signature();
    baseline.score = first.summaries[0].scores().score;
    baseline.count = first.summaries.size();
  }

  const int requests_per_client = smoke ? 3 : 8;
  const std::vector<int> client_levels =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  for (int clients : client_levels) {
    sweep.levels.push_back(RunLevel(source, target, options, &context, clients,
                                    requests_per_client, baseline));
  }
  return sweep;
}

void PrintSweep(const SweepResult& sweep) {
  std::printf("cold request (fills the context cache): %s s\n\n",
              Fmt(sweep.cold_s, 3).c_str());
  std::vector<int> widths = {7, 6, 8, 8, 8, 8, 8, 8, 8, 9, 7, 7, 9};
  PrintRule(widths);
  PrintTableRow(widths, {"clients", "reqs", "wall s", "req/s", "mean s",
                         "p50 s", "p90 s", "p99 s", "hits d", "misses d",
                         "memo d", "queued", "identical"});
  PrintRule(widths);
  for (const ServingRow& r : sweep.levels) {
    PrintTableRow(widths,
                  {std::to_string(r.clients), std::to_string(r.requests),
                   Fmt(r.wall_s, 3), Fmt(r.throughput_rps, 2),
                   Fmt(r.mean_s, 4), Fmt(r.p50_s, 4), Fmt(r.p90_s, 4),
                   Fmt(r.p99_s, 4), std::to_string(r.cache_hits_delta),
                   std::to_string(r.cache_misses_delta),
                   std::to_string(r.memo_hits_delta),
                   std::to_string(r.queued_delta),
                   r.identical ? "yes" : "NO"});
  }
  PrintRule(widths);
}

void WriteJson(const std::string& path, const SweepResult& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema_version\": 1,\n  \"cold_s\": %.5f,\n",
               sweep.cold_s);
  std::fprintf(f, "  \"levels\": [\n");
  for (size_t i = 0; i < sweep.levels.size(); ++i) {
    const ServingRow& r = sweep.levels[i];
    std::fprintf(f,
                 "    {\"clients\": %d, \"requests\": %lld, "
                 "\"wall_s\": %.5f, \"throughput_rps\": %.3f, "
                 "\"mean_s\": %.5f, \"p50_s\": %.5f, \"p90_s\": %.5f, "
                 "\"p99_s\": %.5f, \"cache_hits_delta\": %lld, "
                 "\"cache_misses_delta\": %lld, \"cache_entries\": %lld, "
                 "\"memo_hits_delta\": %lld, "
                 "\"queued_delta\": %lld, \"rejected_delta\": %lld, "
                 "\"identical\": %s}%s\n",
                 r.clients, static_cast<long long>(r.requests), r.wall_s,
                 r.throughput_rps, r.mean_s, r.p50_s, r.p90_s, r.p99_s,
                 static_cast<long long>(r.cache_hits_delta),
                 static_cast<long long>(r.cache_misses_delta),
                 static_cast<long long>(r.cache_entries),
                 static_cast<long long>(r.memo_hits_delta),
                 static_cast<long long>(r.queued_delta),
                 static_cast<long long>(r.rejected_delta),
                 r.identical ? "true" : "false",
                 i + 1 < sweep.levels.size() ? "," : "");
  }
  // The engine-side view of the same sweep: admission counters, cache
  // gauges, and the engine.run_seconds histogram the pipeline feeds.
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
               obs::MetricsRegistry::Global().ToJson().c_str());
  std::fclose(f);
  std::printf("\nrecorded the sweep in %s\n", path.c_str());
}

void BM_ServingFind(benchmark::State& state) {
  EmployeeGenOptions gen;
  gen.num_rows = 8000;
  Table source = GenerateEmployees(gen).ValueOrDie();
  Table target = MakeEmployeeBonusPolicy().Apply(source).ValueOrDie();
  CharlesOptions options = DefaultBenchOptions("bonus", "emp_id");
  options.num_threads = 2;
  EngineContextOptions ctx_options;
  ctx_options.num_threads = 2;
  EngineContext context(ctx_options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SummarizeChanges(source, target, options, &context).ValueOrDie());
  }
}
BENCHMARK(BM_ServingFind)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace charles

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  charles::bench::PrintHeader(
      std::string("O1: serving saturation, concurrent Find() on one context") +
          (smoke ? " (smoke)" : ""),
      "concurrent rankings bit-identical to the serial baseline at every "
      "level");
  charles::bench::SweepResult sweep = charles::bench::RunSweep(smoke);
  charles::bench::PrintSweep(sweep);
  charles::bench::WriteJson("BENCH_serving.json", sweep);

  for (const charles::bench::ServingRow& row : sweep.levels) {
    if (!row.identical) {
      std::fprintf(stderr,
                   "FAIL: a request at %d clients diverged from the serial "
                   "baseline ranking\n",
                   row.clients);
      return 1;
    }
    if (row.rejected_delta != 0) {
      std::fprintf(stderr,
                   "FAIL: %lld admissions rejected at %d clients under "
                   "AdmissionPolicy::kQueue (must queue, never reject)\n",
                   static_cast<long long>(row.rejected_delta), row.clients);
      return 1;
    }
    // The context was warmed by the cold request, so every level must be
    // served (at least partly) from the cross-run cache.
    if (row.cache_hits_delta == 0) {
      std::fprintf(stderr,
                   "FAIL: level at %d clients recorded zero context-cache "
                   "hits; the cross-run cache is not being consulted\n",
                   row.clients);
      return 1;
    }
    // Every warm request repeats the cold one, so both of its stage-memo
    // lookups (phases 1–2, phase 3) must hit.
    if (row.memo_hits_delta != 2 * row.requests) {
      std::fprintf(stderr,
                   "FAIL: level at %d clients recorded %lld stage-memo hits "
                   "for %lld requests; expected 2 per request\n",
                   row.clients, static_cast<long long>(row.memo_hits_delta),
                   static_cast<long long>(row.requests));
      return 1;
    }
  }
  if (smoke) {
    // Levels run on a warm context; the first level (1 client) is the warm
    // serial baseline. Oversubscribed levels queue on 2 run slots, so p99
    // may stack a few runs deep — but a blowup past a generous multiple of
    // the warm serial mean marks a real serving regression.
    const charles::bench::ServingRow& serial = sweep.levels.front();
    const double bound = 25.0 * serial.mean_s + 1.0;
    for (const charles::bench::ServingRow& row : sweep.levels) {
      if (row.p99_s > bound) {
        std::fprintf(stderr,
                     "FAIL: p99 at %d clients is %.4fs vs warm serial mean "
                     "%.4fs (bound %.4fs)\n",
                     row.clients, row.p99_s, serial.mean_s, bound);
        return 1;
      }
    }
    std::printf("smoke OK: every concurrent ranking bit-identical, zero "
                "rejections under queueing, cache and stage-memo hits at "
                "every level, p99 within bounds\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
