// Shared pieces of the benchmark harness: command-line options, the result
// report (checks, operation counts, metrics, the final JSON line), host
// clocks and the small statistics the workloads report.
//
// Every number the harness prints is either HOST time (what the simulator
// or service takes to run on this machine) or SIMULATED (modelled) state
// that is a pure function of the seed. Host metrics are timed from outside
// the library, around calls into its public functions; nothing inside
// src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // Host seconds the measured phase runs (set-up is timed separately).
  double seconds = 10.0;
  // false: end-to-end metrics, untraced; true: the traced run and its
  // per-layer metrics.
  bool trace = false;
  // Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

// Collects correctness checks, operation counts and metrics, and prints
// them. The last line of a run is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
class Report {
 public:
  // One operation that succeeded (a simulated pass, a sweep, a recovery).
  void Done(std::uint64_t operations = 1) { attempted_ += operations; }
  // One correctness check, counted as an operation that can fail. Prints a
  // CHECK line either way.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Set(const std::string& name, double value, const std::string& unit);
  // Human-oriented context printed before the JSON line.
  void Note(const std::string& line);

  bool correct() const { return failed_ == 0; }
  void PrintJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Host speed reference. A shared host drifts by tens of percent over
// minutes as other tenants load it, so the end-to-end host times are
// expressed in reference seconds: the measured interval scaled by how long
// a fixed kernel — an LRU tag-array walk written here, independent of the
// repository's code — takes around it, relative to its nominal time.
// A change to src/ moves the measured interval but never the kernel.
class HostSpeed {
 public:
  // Nominal kernel time: about its median on a 4-vCPU Intel Xeon VM.
  static constexpr double kNominalKernelSeconds = 0.050;

  HostSpeed();
  // Scales `seconds`, an interval that ended just now and began after the
  // previous call (or construction), to reference seconds, using the mean
  // of the kernel times measured before and after it.
  double Normalize(double seconds);
  // Median kernel time over the run, and the median scale factor applied.
  double kernel_ms() const;
  double factor() const;
  // One line for the report: the kernel time and the raw rate behind a
  // normalised one.
  std::string Describe(double raw_ticks_per_sec) const;
  // Per-layer metrics host.kernel_ms and host.speed_factor.
  void SetMetrics(Report& report) const;

 private:
  double last_;
  std::vector<double> kernels_;
  std::vector<double> factors_;
};

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Host cost of one NowNs() read, so the traced run can state how much of
// its time its own probes took.
double ProbeCostNs();

// FNV-1a over 64-bit words: the simulated-statistics fingerprint.
class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double v);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Hex(std::uint64_t v);

// Writes one span record of the traced run as a JSON line.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the same span list; -1 = root
};
bool WriteSpans(const std::string& path, const std::string& workload,
                std::uint64_t run_id, const std::vector<Span>& spans);

// Workload entry points. Each fills `report` with its checks and either its
// end-to-end metrics (opts.trace == false) or its per-layer metrics.
void RunBuslockSds(const Options& opts, Report& report);
void RunCleansingKstest(const Options& opts, Report& report);
void RunFaultSweep(const Options& opts, Report& report);
void RunSvcIngest(const Options& opts, Report& report);

// Shared pieces of the traced runs.
// sim.bare_ns_per_access: the BM_CacheAccess strided loop on a bare machine.
double BareNsPerCacheAccess();
// signal.detect_period_us: signal::DetectPeriod over `series`, median of
// repeats.
double DetectPeriodUs(const std::vector<double>& series);
// stats.ks_test_ns: stats::TwoSampleKsTest over two `window`-long slices
// of `series` (W_R x W_M), median of repeats.
double KsTestNs(const std::vector<double>& series, std::size_t window);

}  // namespace perfbench
