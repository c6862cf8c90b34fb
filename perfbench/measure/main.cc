/// \file
/// The benchmark's measuring process: runs one workload for a fixed time and
/// prints one JSON object of raw measurements (samples, counters, spans) as
/// its last stdout line. perfbench/run.py builds this program, runs it, and
/// reduces the raw object to the metrics BENCHMARK.json names.
///
/// Usage:
///   perfbench_measure --workload <cold_large|warm_session|serving_mixed>
///                     --seed <n> --seconds <s> --trace <0|1>
///                     [--scale <f>] [--trace-out <path>] [--corrupt-reference]
///
/// Both modes set up first, timing each set-up step.
/// --trace 0 then runs the closed loop untraced for the whole time.
/// --trace 1 runs half the time untraced and half stage by stage under
/// spans, replays the layer functions, and writes the spans as Chrome trace
/// JSON to --trace-out.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <string>

#include "common/json.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string trace_out;
  bool corrupt_reference = false;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "perfbench_measure: %s\n", message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--scale") {
      args.scale = std::atof(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0 || args.scale <= 0 || (args.trace != 0 && args.trace != 1)) {
    Usage("bad --seconds, --scale or --trace");
  }
  return args;
}

/// Runs and checks one request through the public API.
void UntracedFind(const Setup& setup, const std::vector<charles::CharlesOptions>& options,
                  size_t request, FindRecord* record) {
  const Pair& pair = setup.pairs[setup.requests[request].pair];
  auto start = std::chrono::steady_clock::now();
  charles::Result<charles::SummaryList> result =
      setup.context != nullptr
          ? charles::SummarizeChanges(pair.source, pair.target, options[request],
                                      setup.context.get())
          : charles::SummarizeChanges(pair.source, pair.target, options[request]);
  record->latency_s = SecondsSince(start);
  record->ok = MatchesReference(result, setup.references[request]);
  if (result.ok() && !result->summaries.empty()) {
    record->has_top = true;
    record->top = result->summaries[0];
  }
}

/// The resident high-water mark of this process (VmHWM) in KiB.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoll(line.c_str() + 6, nullptr, 10);
  }
  Usage("cannot read VmHWM from /proc/self/status");
}

/// Resets the high-water mark, so the peak reported at the end is the
/// measured phase's and not set-up's. Memory set-up freed but the allocator
/// kept is returned first: otherwise the mark would restart from set-up's
/// retained footprint (the references run up to 3 engines at once).
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) Usage("cannot reset the RSS high-water mark (/proc/self/clear_refs)");
}

struct ContextCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t queued = 0;
};

ContextCounters ReadCounters(const Setup& setup) {
  ContextCounters c;
  if (setup.context == nullptr) return c;
  c.hits = setup.context->leaf_cache_hits();
  c.misses = setup.context->leaf_cache_misses();
  c.evictions = setup.context->leaf_cache_evictions();
  c.queued = setup.context->runs_queued();
  return c;
}

void WriteFinds(charles::JsonWriter& json, const std::vector<FindRecord>& finds) {
  json.Key("finds").BeginObject();
  json.Key("request").BeginArray();
  for (const FindRecord& f : finds) json.Int(static_cast<int64_t>(f.request));
  json.EndArray();
  json.Key("pair").BeginArray();
  for (const FindRecord& f : finds) json.Int(static_cast<int64_t>(f.pair));
  json.EndArray();
  json.Key("latency_s").BeginArray();
  for (const FindRecord& f : finds) json.Double(f.latency_s);
  json.EndArray();
  json.Key("ok").BeginArray();
  for (const FindRecord& f : finds) json.Bool(f.ok);
  json.EndArray();
  json.Key("f1").BeginArray();
  for (const FindRecord& f : finds) json.Double(f.f1);
  json.EndArray();
  json.EndObject();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) Usage("unknown workload");

  const Setup setup = MakeSetup(spec, args.seed, args.scale, args.corrupt_reference);
  const int64_t setup_peak_rss_kb = PeakRssKb();
  ResetPeakRss();
  std::vector<charles::CharlesOptions> options;
  for (const Request& request : setup.requests) {
    options.push_back(RequestOptions(setup, request));
  }
  auto untraced = [&](size_t request, FindRecord* record) {
    UntracedFind(setup, options, request, record);
  };

  int64_t attempted = setup.warmup_attempted;
  int64_t failed = setup.warmup_failed;
  charles::JsonWriter json;
  json.BeginObject();
  json.Key("workload").String(spec.name);
  json.Key("seed").Uint(args.seed);
  json.Key("trace").Int(args.trace);
  json.Key("clients").Int(spec.clients);
  json.Key("threads").Int(kEngineThreads);
  json.Key("pairs").BeginArray();
  for (const Pair& pair : setup.pairs) {
    json.BeginObject();
    json.Key("name").String(pair.name);
    json.Key("rows").Int(pair.source.num_rows());
    json.EndObject();
  }
  json.EndArray();
  json.Key("setup_steps").BeginObject();
  for (const auto& [name, seconds] : setup.setup_steps) json.Key(name).Double(seconds);
  json.EndObject();

  const double loop_seconds = args.trace == 0 ? args.seconds : args.seconds / 2;
  const ContextCounters before = ReadCounters(setup);
  LoopResult loop = RunClosedLoop(setup, loop_seconds, untraced);
  const ContextCounters after = ReadCounters(setup);
  ScoreRecovery(setup, &loop.finds);
  for (const FindRecord& f : loop.finds) {
    ++attempted;
    if (!f.ok) ++failed;
  }
  json.Key("wall_s").Double(loop.wall_s);
  WriteFinds(json, loop.finds);
  json.Key("context").BeginObject();
  json.Key("hits").Int(after.hits - before.hits);
  json.Key("misses").Int(after.misses - before.misses);
  json.Key("evictions").Int(after.evictions - before.evictions);
  json.Key("runs_queued").Int(after.queued - before.queued);
  json.EndObject();
  json.Key("one_thread").BeginObject();
  {
    double computed = 0, reused = 0;
    for (const Reference& ref : setup.references) {
      computed += static_cast<double>(ref.leaf_fits_computed);
      reused += static_cast<double>(ref.leaf_fits_reused);
    }
    const double n = static_cast<double>(setup.references.size());
    json.Key("leaf_fits_computed").Double(computed / n);
    json.Key("leaf_fits_reused").Double(reused / n);
  }
  json.EndObject();

  if (args.trace == 1) {
    charles::obs::TraceRecorder recorder;
    std::mutex mu;
    std::vector<TracedSample> samples;
    auto traced = [&](size_t request, FindRecord* record) {
      TracedSample sample = TracedFind(setup, request, options[request],
                                       setup.context.get(), &recorder, "find");
      record->latency_s = sample.find_s;
      record->ok = sample.ok;
      std::lock_guard<std::mutex> lock(mu);
      samples.push_back(std::move(sample));
    };
    LoopResult traced_loop = RunClosedLoop(setup, args.seconds / 2, traced);
    for (const FindRecord& f : traced_loop.finds) {
      ++attempted;
      if (!f.ok) ++failed;
    }
    json.Key("traced").BeginArray();
    for (const TracedSample& s : samples) {
      json.BeginObject();
      json.Key("request").Int(static_cast<int64_t>(s.request));
      json.Key("pair").Int(static_cast<int64_t>(setup.requests[s.request].pair));
      json.Key("ok").Bool(s.ok);
      json.Key("find_s").Double(s.find_s);
      json.Key("stage_s").BeginObject();
      for (size_t i = 0; i < kStageNames.size(); ++i) {
        json.Key(kStageNames[i]).Double(s.stage_s[i]);
      }
      json.EndObject();
      json.Key("rss_mb").BeginArray();
      for (double v : s.rss_mb) json.Double(v);
      json.EndArray();
      json.Key("counts").BeginObject();
      for (const auto& [name, value] : s.counts) json.Key(name).Double(value);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();

    // Layer replays, once per generator (the first request on its first
    // pair): variants of one generator have the same shape.
    json.Key("replays").BeginArray();
    std::set<std::string> replayed;
    for (size_t r = 0; r < setup.requests.size(); ++r) {
      if (!replayed.insert(setup.pairs[setup.requests[r].pair].name).second) continue;
      ReplaySeconds replay = ReplayLayers(setup, r, &recorder);
      json.BeginObject();
      json.Key("cluster_residuals_s").Double(replay.cluster_residuals_s);
      json.Key("kmeans_fit_s").Double(replay.kmeans_fit_s);
      json.Key("induce_candidates_s").Double(replay.induce_candidates_s);
      json.EndObject();
    }
    json.EndArray();

    // A workload that does not shard still reports the coordinator's
    // fields: one cold sharded (num_shards = 2, in-process, no context) Find
    // of its first request, traced so the coordinator's round spans land in
    // the trace. Cold, so that no round is elided by a warm cache.
    if (spec.num_shards == 0) {
      charles::CharlesOptions sharded = options[0];
      sharded.num_shards = 2;
      TracedSample sample = TracedFind(setup, 0, sharded, /*context=*/nullptr,
                                       &recorder, "distributed.sharded_find");
      ++attempted;
      if (!sample.ok) ++failed;
      json.Key("sharded_replay").BeginObject();
      for (const auto& [name, value] : sample.counts) json.Key(name).Double(value);
      json.EndObject();
    }

    json.Key("spans").BeginObject();
    for (const auto& [name, totals] : SelfTimes(recorder)) {
      json.Key(name).BeginObject();
      json.Key("count").Int(totals.count);
      json.Key("total_s").Double(totals.total_s);
      json.Key("self_s").Double(totals.self_s);
      json.EndObject();
    }
    json.EndObject();
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << recorder.ToChromeTraceJson();
      if (!out) Usage("cannot write --trace-out");
    }
  }

  json.Key("setup_peak_rss_kb").Int(setup_peak_rss_kb);
  json.Key("peak_rss_kb").Int(PeakRssKb());
  json.Key("attempted").Int(attempted);
  json.Key("failed").Int(failed);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
