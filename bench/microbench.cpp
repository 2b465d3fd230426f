// Micro-benchmarks (google-benchmark) for the primitives behind the paper's
// "lightweight" claim: the per-sample cost of the SDS/B pipeline, the
// per-check cost of SDS/P's DFT-ACF, the KS test the baseline runs every
// L_M, and the simulator's cache/bus hot path.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "detect/boundary.h"
#include "telemetry/telemetry.h"
#include "detect/period.h"
#include "signal/acf.h"
#include "signal/fft.h"
#include "signal/moving_average.h"
#include "signal/period_detect.h"
#include "sim/machine.h"
#include "stats/ks_test.h"

namespace {

using namespace sds;

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Normal(100.0, 10.0);
  return v;
}

void BM_BoundaryAnalyzerObserve(benchmark::State& state) {
  detect::BoundaryProfile profile{100.0, 10.0};
  detect::DetectorParams params;
  detect::BoundaryAnalyzer analyzer(profile, params);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Observe(rng.Normal(100.0, 10.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundaryAnalyzerObserve);

void BM_PeriodAnalyzerObserve(benchmark::State& state) {
  detect::PeriodProfile profile{17.0, 0.8};
  detect::DetectorParams params;
  detect::PeriodAnalyzer analyzer(profile, params);
  Rng rng(2);
  std::size_t t = 0;
  for (auto _ : state) {
    const double v =
        100.0 +
        30.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t++) /
                        850.0) +
        rng.Normal(0.0, 5.0);
    benchmark::DoNotOptimize(analyzer.Observe(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PeriodAnalyzerObserve);

void BM_DftAcfPeriodDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / 17.0) +
           0.3 * rng.Normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DetectPeriod(x));
  }
}
BENCHMARK(BM_DftAcfPeriodDetect)->Arg(34)->Arg(68)->Arg(128)->Arg(512);

void BM_TwoSampleKsTest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 4);
  const auto b = RandomSeries(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwoSampleKsTest(a, b));
  }
}
BENCHMARK(BM_TwoSampleKsTest)->Arg(100)->Arg(1000);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomSeries(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FftReal(x));
  }
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(1024)->Arg(100)->Arg(1000);

void BM_AutocorrelationFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomSeries(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AutocorrelationFft(x, n / 2));
  }
}
BENCHMARK(BM_AutocorrelationFft)->Arg(64)->Arg(512);

void BM_SlidingWindowAverage(benchmark::State& state) {
  SlidingWindowAverage ma(200, 50);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ma.Push(rng.Normal(100.0, 10.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingWindowAverage);

void BM_CacheAccess(benchmark::State& state) {
  sim::MachineConfig cfg;
  sim::Machine machine(cfg);
  machine.BeginTick();
  Rng rng(9);
  const std::uint64_t region = 100000;
  for (auto _ : state) {
    machine.BeginTick();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(machine.Access(1, rng.UniformInt(region)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CacheAccess);

// Hit-heavy LLC traffic: a working set of 12 lines per set stays resident in
// the default 16-way cache, so every access hits at a random recency
// position and the cost measured is the tag scan plus the move-to-front
// shift.
void BM_CacheAccessHits(benchmark::State& state) {
  sim::LastLevelCache cache(sim::CacheConfig{});
  const std::uint64_t working_set =
      static_cast<std::uint64_t>(cache.config().sets) * 12;
  Rng rng(9);
  std::vector<LineAddr> addrs(4096);
  for (LineAddr& a : addrs) a = rng.UniformInt(working_set);
  for (LineAddr a = 0; a < working_set; ++a) cache.Access(1, a);
  for (auto _ : state) {
    for (const LineAddr a : addrs) {
      benchmark::DoNotOptimize(cache.Access(1, a));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_CacheAccessHits);

// The LLC-cleansing primitive: sweeps 16 sets with two alternating groups of
// `ways` lines each, so every access misses on a full set and evicts its
// least recently used line — the eviction path the cleansing attack drives.
void BM_CacheCleansingSweep(benchmark::State& state) {
  sim::LastLevelCache cache(sim::CacheConfig{});
  const std::uint64_t sets = cache.config().sets;
  const std::uint64_t ways = cache.config().ways;
  std::vector<LineAddr> addrs;
  for (std::uint64_t group = 0; group < 2; ++group) {
    for (std::uint64_t set = 0; set < 16; ++set) {
      for (std::uint64_t w = 0; w < ways; ++w) {
        addrs.push_back((group * ways + w) * sets + set);
      }
    }
  }
  for (const LineAddr a : addrs) cache.Access(2, a);
  for (auto _ : state) {
    for (const LineAddr a : addrs) {
      benchmark::DoNotOptimize(cache.Access(2, a));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_CacheCleansingSweep);

// The same hot path with a telemetry handle attached but every tracer layer
// disabled: the cost of the instrumented_ branch alone.
// Regression guard for the single-branch cost claim: this must stay within
// noise of BM_CacheAccess.
void BM_CacheAccessInstrumentedOff(benchmark::State& state) {
  telemetry::Telemetry telemetry;
  telemetry.tracer().DisableAllLayers();
  sim::MachineConfig cfg;
  cfg.telemetry = &telemetry;
  sim::Machine machine(cfg);
  machine.BeginTick();
  Rng rng(9);
  const std::uint64_t region = 100000;
  for (auto _ : state) {
    machine.BeginTick();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(machine.Access(1, rng.UniformInt(region)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CacheAccessInstrumentedOff);

}  // namespace

BENCHMARK_MAIN();
