#include "core/engine_context.h"

#include <chrono>

#include "obs/metrics.h"

namespace charles {

namespace {

/// Admission / concurrency metrics. Static-local cached pointers: one
/// registry lookup per process, relaxed atomics per event.
obs::Counter* AdmittedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("engine.runs_admitted");
  return counter;
}

obs::Counter* QueuedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("engine.runs_queued");
  return counter;
}

obs::Counter* RejectedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().counter("engine.runs_rejected");
  return counter;
}

obs::Gauge* ActiveRunsGauge() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Global().gauge("engine.active_runs");
  return gauge;
}

}  // namespace

EngineContext::EngineContext(EngineContextOptions options) {
  num_threads_ = options.num_threads > 0 ? options.num_threads
                                         : ThreadPool::HardwareConcurrency();
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  int shards = options.cache_shards > 0 ? options.cache_shards : num_threads_ * 4;
  size_t max_entries = options.max_cache_entries > 0
                           ? static_cast<size_t>(options.max_cache_entries)
                           : 0;
  // A bounded cache never gets more shards than entries: the per-shard
  // budget floors at one, so extra shards would silently raise the bound.
  if (max_entries > 0 && static_cast<size_t>(shards) > max_entries) {
    shards = static_cast<int>(max_entries);
  }
  leaf_cache_ = std::make_unique<SharedLeafFitCache>(shards, max_entries);
  // Memo entries are few and coarse (two per distinct query), so one lock
  // shard costs no contention and keeps the LRU bound exact.
  stage_memo_ = std::make_unique<StageMemoCache>(1, max_entries);
  max_concurrent_runs_ = options.max_concurrent_runs > 0 ? options.max_concurrent_runs : 0;
  admission_ = options.admission;
}

Result<EngineContext::RunSlot> EngineContext::AdmitRun(const StopToken* stop) {
  if (stop != nullptr && stop->stop_requested()) {
    return Status::Cancelled("run cancelled before admission");
  }
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (max_concurrent_runs_ > 0 && active_runs_ >= max_concurrent_runs_) {
    if (admission_ == AdmissionPolicy::kReject) {
      runs_rejected_.fetch_add(1, std::memory_order_relaxed);
      RejectedCounter()->Increment();
      return Status::ResourceExhausted(
          "EngineContext: " + std::to_string(active_runs_) + " of " +
          std::to_string(max_concurrent_runs_) +
          " concurrent runs active (admission policy: reject)");
    }
    runs_queued_.fetch_add(1, std::memory_order_relaxed);
    QueuedCounter()->Increment();
    if (stop == nullptr) {
      admission_cv_.wait(lock,
                         [this] { return active_runs_ < max_concurrent_runs_; });
    } else {
      // A StopToken has no notification channel into this condition
      // variable, so the queued wait polls it at a coarse tick — cheap
      // against run lengths, prompt against human timeouts.
      while (!admission_cv_.wait_for(
          lock, std::chrono::milliseconds(20),
          [this] { return active_runs_ < max_concurrent_runs_; })) {
        if (stop->stop_requested()) {
          return Status::Cancelled("run cancelled while queued for admission");
        }
      }
    }
  }
  ++active_runs_;
  AdmittedCounter()->Increment();
  ActiveRunsGauge()->Set(active_runs_);
  return RunSlot(this);
}

void EngineContext::FinishRun() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --active_runs_;
    ActiveRunsGauge()->Set(active_runs_);
  }
  admission_cv_.notify_one();
}

int EngineContext::active_runs() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return active_runs_;
}

}  // namespace charles
