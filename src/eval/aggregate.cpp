#include "eval/aggregate.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/annotations.h"
#include "common/check.h"
#include "common/types.h"

namespace sds::eval {
namespace {

// First exception thrown by any worker, carried back to the caller. Without
// this, an exception escaping a worker thread is std::terminate — a CHECK
// failure inside one seeded run used to kill the whole sweep process with no
// usable message.
class ErrorSlot {
 public:
  void Capture(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_) first_ = error;
    }
    armed_.store(true, std::memory_order_relaxed);
  }

  bool armed() const {
    // Relaxed is enough: this is only a scheduling hint; Rethrow holds the
    // lock for the authoritative read.
    return armed_.load(std::memory_order_relaxed);
  }

  void Rethrow() {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr first_ SDS_GUARDED_BY(mu_);
  std::atomic<bool> armed_{false};
};

}  // namespace

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  SDS_CHECK(n >= 0, "negative iteration count");
  if (n == 0) return;
  const int workers = std::max(1, std::min(threads, n));
  if (workers == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  ErrorSlot error;
  const auto drain = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (error.armed()) return;  // stop claiming work after a failure
      try {
        fn(i);
      } catch (...) {
        error.Capture(std::current_exception());
        return;
      }
    }
  };
  // The caller is one of the workers: a cell it runs reuses the main malloc
  // arena's free memory instead of growing another thread's arena.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();
  for (auto& t : pool) t.join();
  error.Rethrow();
}

int DefaultThreads(int max_threads) {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(max_threads, hw > 0 ? hw : 4));
}

int CellThreads(int n, const telemetry::Telemetry* telemetry) {
  return telemetry != nullptr ? 1 : std::min(n, DefaultThreads());
}

AggregatedDetection AggregateDetection(const DetectionRunConfig& config,
                                       int runs, std::uint64_t base_seed,
                                       int threads) {
  SDS_CHECK(runs >= 1, "need at least one run");
  std::vector<DetectionRunResult> results(static_cast<std::size_t>(runs));
  ParallelFor(runs, threads, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        RunDetectionRun(config, base_seed + static_cast<std::uint64_t>(i));
  });

  std::vector<double> recalls;
  std::vector<double> specificities;
  std::vector<double> delays;
  AggregatedDetection agg;
  agg.runs = runs;
  for (const auto& r : results) {
    recalls.push_back(r.recall());
    specificities.push_back(r.specificity());
    if (r.detected) {
      ++agg.detected_runs;
      delays.push_back(static_cast<double>(*r.detection_delay_ticks) *
                       kDefaultTpcmSeconds);
    }
  }
  agg.recall = Summarize(recalls);
  agg.specificity = Summarize(specificities);
  if (!delays.empty()) agg.delay_seconds = Summarize(delays);
  return agg;
}

AggregatedOverhead AggregateOverhead(const OverheadRunConfig& config,
                                     int runs, std::uint64_t base_seed,
                                     int threads) {
  SDS_CHECK(runs >= 1, "need at least one run");
  std::vector<double> ratios(static_cast<std::size_t>(runs), 0.0);
  ParallelFor(runs, threads, [&](int i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    OverheadRunConfig baseline = config;
    baseline.scheme = Scheme::kNone;
    const OverheadRunResult base = RunOverheadRun(baseline, seed);
    const OverheadRunResult with = RunOverheadRun(config, seed);
    SDS_CHECK(base.completed && with.completed,
              "overhead run hit the tick cap; raise max_ticks");
    ratios[static_cast<std::size_t>(i)] =
        static_cast<double>(with.completion_ticks) /
        static_cast<double>(base.completion_ticks);
  });
  AggregatedOverhead agg;
  agg.runs = runs;
  agg.normalized_time = Summarize(ratios);
  return agg;
}

}  // namespace sds::eval
