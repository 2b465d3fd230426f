#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string_view>

#include "common/check.h"
#include "signal/period_detect.h"
#include "sim/machine.h"
#include "stats/ks_test.h"

namespace perfbench {

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) ++failed_;
  std::printf("CHECK %-44s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Check("finite " + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct() ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// An LRU set-associative tag array (4096 sets x 16 ways, ~1 MiB of state,
// like the simulated LLC) driven by xorshift: the memory- and branch-bound
// shape of the simulator's own hot loop.
double KernelSeconds() {
  constexpr std::uint64_t kSets = 4096;
  constexpr std::uint64_t kWays = 16;
  constexpr int kAccesses = 2'000'000;
  static std::vector<std::uint64_t> tags(kSets * kWays);
  static std::vector<std::uint64_t> ages(kSets * kWays);
  std::fill(tags.begin(), tags.end(), 0);
  std::fill(ages.begin(), ages.end(), 0);
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t clock = 0;
  std::uint64_t hits = 0;
  const std::int64_t start = NowNs();
  for (int i = 0; i < kAccesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t line = x % (kSets * kWays * 2) + 1;
    std::uint64_t* tag = &tags[(line % kSets) * kWays];
    std::uint64_t* age = &ages[(line % kSets) * kWays];
    std::uint64_t victim = 0;
    bool hit = false;
    for (std::uint64_t w = 0; w < kWays; ++w) {
      if (tag[w] == line) {
        hit = true;
        age[w] = ++clock;
        break;
      }
      if (age[w] < age[victim]) victim = w;
    }
    if (hit) {
      ++hits;
    } else {
      tag[victim] = line;
      age[victim] = ++clock;
    }
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (hits == 42) std::printf(" ");  // keep the walk observable
  return seconds;
}

}  // namespace

HostSpeed::HostSpeed() : last_(KernelSeconds()) {
  kernels_.push_back(last_);
}

double HostSpeed::Normalize(double seconds) {
  const double now = KernelSeconds();
  kernels_.push_back(now);
  const double factor = kNominalKernelSeconds / (0.5 * (last_ + now));
  last_ = now;
  factors_.push_back(factor);
  return seconds * factor;
}

double HostSpeed::kernel_ms() const { return Median(kernels_) * 1e3; }
double HostSpeed::factor() const { return Median(factors_); }

std::string HostSpeed::Describe(double raw_ticks_per_sec) const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "host speed: reference kernel %.1f ms (nominal %.1f ms), "
                "factor %.3f; raw %.0f ticks/s",
                kernel_ms(), kNominalKernelSeconds * 1e3, factor(),
                raw_ticks_per_sec);
  return buf;
}

void HostSpeed::SetMetrics(Report& report) const {
  report.Set("host.kernel_ms", kernel_ms(), "ms");
  report.Set("host.speed_factor", factor(), "ratio");
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double ProbeCostNs() {
  constexpr int kReads = 200000;
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    std::int64_t sink = 0;
    const std::int64_t start = NowNs();
    for (int i = 0; i < kReads; ++i) sink ^= NowNs();
    const std::int64_t end = NowNs();
    if (sink == 42) std::printf(" ");  // keep the reads observable
    rounds.push_back(static_cast<double>(end - start) / kReads);
  }
  return Median(rounds);
}

void Fingerprint::AddDouble(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                std::uint64_t run_id, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"type\":\"span\",\"workload\":\"" << workload
        << "\",\"run\":" << run_id << ",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

double BareNsPerCacheAccess() {
  // The BM_CacheAccess loop: a bare machine, no telemetry, one owner
  // striding through twice the cache's working set.
  sds::sim::MachineConfig config;
  sds::sim::Machine machine(config);
  const std::uint64_t lines =
      static_cast<std::uint64_t>(config.cache.sets) * config.cache.ways * 2;
  constexpr std::uint64_t kAccesses = 1'000'000;
  std::vector<double> rounds;
  sds::LineAddr addr = 0;
  machine.BeginTick();
  for (int r = 0; r < 5; ++r) {
    const std::int64_t start = NowNs();
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
      machine.Access(1, addr);
      addr = (addr + 37) % lines;
      if ((i & 1023u) == 1023u) machine.BeginTick();  // refill the bus
    }
    rounds.push_back(static_cast<double>(NowNs() - start) / kAccesses);
  }
  return Median(rounds);
}

double DetectPeriodUs(const std::vector<double>& series) {
  if (series.size() < 16) return 0.0;
  std::vector<double> rounds;
  for (int r = 0; r < 7; ++r) {
    const std::int64_t start = NowNs();
    (void)sds::DetectPeriod(series);
    rounds.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(rounds);
}

double KsTestNs(const std::vector<double>& series, std::size_t window) {
  if (series.size() < 2 * window || window == 0) return 0.0;
  const std::span<const double> all(series);
  const std::size_t slices = series.size() / window - 1;
  std::vector<double> rounds;
  double sink = 0.0;
  for (int r = 0; r < 5; ++r) {
    constexpr int kTests = 400;
    const std::int64_t start = NowNs();
    for (int i = 0; i < kTests; ++i) {
      const std::size_t a = static_cast<std::size_t>(i) % slices;
      const std::size_t b = (a + 1) % slices;
      sink += sds::TwoSampleKsTest(all.subspan(a * window, window),
                                   all.subspan(b * window, window))
                  .statistic;
    }
    rounds.push_back(static_cast<double>(NowNs() - start) / kTests);
  }
  if (sink < 0.0) std::printf(" ");  // keep the tests observable
  return Median(rounds);
}

}  // namespace perfbench

namespace {

constexpr const char* kUsage =
    "usage: perfbench_harness --workload NAME --seed N --seconds S "
    "--trace 0|1 [--out_dir DIR]\n"
    "workloads: buslock_sds cleansing_kstest fault_sweep svc_ingest\n";

bool ParseArgs(int argc, char** argv, perfbench::Options& opts) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opts.trace = value[0] == '1';
    } else if (flag == "--out_dir") {
      opts.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d build_type=%s compiler=%s\n",
              opts.workload.c_str(), opts.seed, opts.seconds,
              opts.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  perfbench::Report report;
  try {
    if (opts.workload == "buslock_sds") {
      perfbench::RunBuslockSds(opts, report);
    } else if (opts.workload == "cleansing_kstest") {
      perfbench::RunCleansingKstest(opts, report);
    } else if (opts.workload == "fault_sweep") {
      perfbench::RunFaultSweep(opts, report);
    } else if (opts.workload == "svc_ingest") {
      perfbench::RunSvcIngest(opts, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n%s", opts.workload.c_str(),
                   kUsage);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.PrintJson();
  return 0;
}
