#include "eval/aggregate.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/report.h"
#include "telemetry/telemetry.h"

namespace sds::eval {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(100, 4, [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ZeroIterations) {
  int called = 0;
  ParallelFor(0, 4, [&](int) { ++called; });
  EXPECT_EQ(called, 0);
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, WorkerExceptionPropagatesToCaller) {
  // A throw inside a worker used to escape the thread and terminate the
  // process; now the first exception is rethrown after all workers join.
  EXPECT_THROW(
      ParallelFor(64, 4,
                  [](int i) {
                    if (i == 17) throw std::runtime_error("run 17 failed");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionStopsSchedulingRemainingWork) {
  std::atomic<int> ran{0};
  try {
    // Every even index throws, so each worker fails within its first couple
    // of claims no matter how the scheduler interleaves them.
    ParallelFor(10000, 2, [&](int i) {
      if (i % 2 == 0) throw std::runtime_error("fail fast");
      ++ran;
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error&) {
  }
  // Workers stop claiming indices after the first failure; only a bounded
  // prefix of the 5000 odd iterations can have run.
  EXPECT_LT(ran.load(), 100);
}

TEST(ParallelForTest, InlinePathPropagatesException) {
  EXPECT_THROW(
      ParallelFor(3, 1, [](int) { throw std::runtime_error("inline"); }),
      std::runtime_error);
}

// Blocks each of the first `parties` calls until all of them have arrived.
// No thread can claim a second index before every party holds one, so each
// of `parties` distinct threads runs exactly one of the first indices.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}
  void Arrive() {
    arrived_.fetch_add(1);
    while (arrived_.load() < parties_) std::this_thread::yield();
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
};

TEST(ParallelForTest, CallerRunsIndicesToo) {
  constexpr int kThreads = 4;
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous rendezvous(kThreads);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> caller_runs{0};
  ParallelFor(32, kThreads, [&](int i) {
    if (i < kThreads) rendezvous.Arrive();
    if (std::this_thread::get_id() == caller) ++caller_runs;
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(caller_runs.load(), 1);
  // threads - 1 spawned workers plus the caller.
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
}

TEST(ParallelForTest, CallerExceptionWaitsForEveryWorker) {
  constexpr int kThreads = 4;
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous rendezvous(kThreads);
  std::atomic<int> finished{0};
  try {
    ParallelFor(kThreads, kThreads, [&](int) {
      rendezvous.Arrive();
      if (std::this_thread::get_id() == caller) {
        throw std::runtime_error("caller's index failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++finished;
    });
    FAIL() << "expected the caller's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller's index failed");
  }
  // Rethrown only after the in-flight workers ran to completion.
  EXPECT_EQ(finished.load(), kThreads - 1);
}

TEST(ParallelForTest, OneOrFewerThreadsRunInlineInOrder) {
  for (const int threads : {1, 0, -3}) {
    SCOPED_TRACE(threads);
    std::vector<int> order;
    std::set<std::thread::id> ids;
    ParallelFor(6, threads, [&](int i) {
      order.push_back(i);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
  }
}

TEST(RunCellsTest, ResultsComeInIndexOrder) {
  const std::vector<int> squares =
      RunCells(40, nullptr, [](int i) { return i * i; });
  ASSERT_EQ(squares.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
  }
  EXPECT_TRUE(RunCells(0, nullptr, [](int i) { return i; }).empty());
}

TEST(RunCellsTest, ThreadPolicy) {
  EXPECT_EQ(CellThreads(1, nullptr), 1);
  EXPECT_EQ(CellThreads(1000, nullptr), DefaultThreads());
  EXPECT_EQ(CellThreads(2, nullptr), std::min(2, DefaultThreads()));
  // A telemetry handle is never shared across threads: serial.
  const telemetry::Telemetry telemetry;
  EXPECT_EQ(CellThreads(1000, &telemetry), 1);
}

TEST(DefaultThreadsTest, Bounded) {
  EXPECT_GE(DefaultThreads(8), 1);
  EXPECT_LE(DefaultThreads(8), 8);
  EXPECT_EQ(DefaultThreads(1), 1);
}

TEST(FormatSummaryTest, RendersMedianAndBar) {
  PercentileSummary s;
  s.p10 = 0.8;
  s.median = 0.9;
  s.p90 = 1.0;
  EXPECT_EQ(FormatSummary(s, 2), "0.90 [0.80, 1.00]");
}

TEST(AggregateDetectionTest, ShortSweepProducesSaneMetrics) {
  DetectionRunConfig cfg;
  cfg.app = "bayes";
  cfg.attack = AttackKind::kBusLock;
  cfg.scheme = Scheme::kSds;
  // Short stages keep this test quick while exercising the whole pipeline.
  cfg.profile_ticks = 6000;
  cfg.clean_ticks = 5000;
  cfg.attack_ticks = 8000;
  const auto agg = AggregateDetection(cfg, 2, 10, 1);
  EXPECT_EQ(agg.runs, 2);
  EXPECT_EQ(agg.detected_runs, 2);
  EXPECT_DOUBLE_EQ(agg.recall.median, 1.0);
  EXPECT_GE(agg.specificity.median, 0.5);
  EXPECT_GT(agg.delay_seconds.median, 0.0);
  EXPECT_LT(agg.delay_seconds.median, 80.0);
}

TEST(AggregateOverheadTest, SchemeNoneHasRatioOne) {
  OverheadRunConfig cfg;
  cfg.app = "bayes";
  cfg.scheme = Scheme::kNone;
  cfg.work_target_units = 500;
  const auto agg = AggregateOverhead(cfg, 2, 5, 1);
  EXPECT_DOUBLE_EQ(agg.normalized_time.median, 1.0);
}

TEST(SchemeNameTest, AllNames) {
  EXPECT_STREQ(SchemeName(Scheme::kNone), "none");
  EXPECT_STREQ(SchemeName(Scheme::kSdsB), "SDS/B");
  EXPECT_STREQ(SchemeName(Scheme::kSdsP), "SDS/P");
  EXPECT_STREQ(SchemeName(Scheme::kSds), "SDS");
  EXPECT_STREQ(SchemeName(Scheme::kKsTest), "KStest");
}

}  // namespace
}  // namespace sds::eval
