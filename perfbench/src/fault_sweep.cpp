// fault_sweep: a reduced monitoring-plane robustness sweep through
// eval::RunRobustnessSweep — the pca victim (periodic, so the SDS/P period
// analyzer and its DFT-ACF profile path run) under a bus-lock attack,
// watched by combined SDS, over a fault-free baseline cell and a small
// kind x rate grid that includes sampler death. Each cell is a full
// profile -> clean -> attack protocol. The sweep is repeated, unchanged,
// until the time budget is spent; every repeat must reproduce the same
// simulated outcome.
#include <sys/resource.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "eval/robustness.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace sds;

constexpr TickClock kClock;
// CollectCleanSamples and the accuracy protocol each warm the machine up for
// this many ticks before sampling.
constexpr Tick kWarmupTicks = 500;

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

eval::RobustnessSweepConfig SweepConfig(std::uint64_t seed) {
  eval::RobustnessSweepConfig c;
  c.run.app = "pca";
  c.run.attack = eval::AttackKind::kBusLock;
  c.run.scheme = eval::Scheme::kSds;
  c.run.profile_ticks = 3000;
  // The attack starts at a seed-drawn tick of a 250-tick span (half the
  // SDS/P period-check cadence), as a real attack would; at a fixed start
  // every seed would meet the check grid at the same phase.
  Rng rng(seed ^ 0xa77acull);
  c.run.clean_ticks = 4000 + static_cast<Tick>(rng.UniformInt(250));
  c.run.attack_ticks = 4000;
  c.kinds = {fault::FaultKind::kDropSample, fault::FaultKind::kSamplerDeath};
  c.rates = {0.1};
  c.runs_per_cell = 1;
  c.base_seed = seed;
  c.fault_seed = seed ^ 0xf5eedull;
  return c;
}

// Simulated ticks one cell run executes: profile warm-up + profile, then
// warm-up + clean + attack.
Tick TicksPerRun(const eval::DetectionRunConfig& run) {
  return kWarmupTicks + run.profile_ticks + kWarmupTicks + run.clean_ticks +
         run.attack_ticks;
}

std::uint64_t ResultFingerprint(const eval::RobustnessSweepResult& r) {
  Fingerprint fp;
  const auto add = [&fp](const eval::RobustnessCell& c) {
    fp.Add(static_cast<std::uint64_t>(c.detected_runs));
    fp.AddDouble(c.mean_delay_ticks);
    fp.Add(static_cast<std::uint64_t>(c.true_negative_intervals));
    fp.Add(static_cast<std::uint64_t>(c.false_positive_intervals));
    fp.Add(c.counters.fault.injected_total());
    fp.Add(c.counters.fault.missing_ticks);
    fp.Add(c.counters.degrade.gap_ticks);
    fp.Add(c.counters.degrade.watchdog_restarts);
  };
  add(r.baseline);
  for (const eval::RobustnessCell& c : r.cells) add(c);
  return fp.value();
}

}  // namespace

void RunFaultSweep(const Options& opts, Report& report) {
  const eval::RobustnessSweepConfig config = SweepConfig(opts.seed);

  // Set-up: the stage-1 profile every cell starts from (clean collection +
  // BuildSdsProfile), repeated so its median is steady.
  HostSpeed speed;
  std::vector<double> setup_s;
  std::vector<double> profile_ms;
  std::vector<pcm::PcmSample> clean;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    eval::ScenarioConfig base;
    base.app = config.run.app;
    clean = eval::CollectCleanSamples(base, config.run.profile_ticks,
                                      config.base_seed);
    const std::int64_t p0 = NowNs();
    (void)detect::BuildSdsProfile(clean, config.run.params);
    profile_ms.push_back(static_cast<double>(NowNs() - p0) / 1e6);
    setup_s.push_back(speed.Normalize(SecondsSince(start)));
  }

  const Clock::time_point start = Clock::now();
  std::vector<double> sweep_s;
  std::vector<double> sweep_ref_s;  // in reference seconds (HostSpeed)
  std::vector<double> cpu_per_wall;
  std::vector<Span> spans;
  eval::RobustnessSweepResult result;
  std::uint64_t reference_fp = 0;
  bool repeats_agree = true;
  do {
    const double cpu0 = ProcessCpuSeconds();
    const std::int64_t t0 = NowNs();
    result = eval::RunRobustnessSweep(config);
    const std::int64_t t1 = NowNs();
    sweep_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    sweep_ref_s.push_back(speed.Normalize(sweep_s.back()));
    cpu_per_wall.push_back((ProcessCpuSeconds() - cpu0) / sweep_s.back());
    spans.push_back({"eval.sweep", t0, t1, -1});
    const std::uint64_t fp = ResultFingerprint(result);
    if (sweep_s.size() == 1) reference_fp = fp;
    repeats_agree = repeats_agree && fp == reference_fp;
    report.Done();
  } while (SecondsSince(start) < opts.seconds || sweep_s.size() < 2);

  const std::size_t cells = result.cells.size() + 1;
  const Tick sim_ticks = static_cast<Tick>(cells) * config.runs_per_cell *
                         TicksPerRun(config.run);
  double recall_sum = result.baseline.recall();
  double specificity_sum = result.baseline.specificity();
  std::uint64_t injected = 0;
  for (const eval::RobustnessCell& c : result.cells) {
    recall_sum += c.recall();
    specificity_sum += c.specificity();
    injected += c.counters.fault.injected_total();
  }
  const double median_sweep_s = Median(sweep_s);
  const double ticks_per_sec =
      static_cast<double>(sim_ticks) / Median(sweep_ref_s);
  const double delay_s =
      result.baseline.mean_delay_ticks * kClock.ToSeconds(1);

  report.Check("sweep repeats agree", repeats_agree,
               "fingerprint " + Hex(reference_fp) + " over " +
                   std::to_string(sweep_s.size()) + " sweeps");
  report.Check("baseline cell recall is 1",
               result.baseline.recall() == 1.0);
  char line[256];
  std::snprintf(line, sizeof line,
                "sweep: %zu cells, %lld simulated ticks, %.3f s median of %zu "
                "(%.0f ticks/s); baseline delay %.2f s",
                cells, static_cast<long long>(sim_ticks), median_sweep_s,
                sweep_s.size(), ticks_per_sec, delay_s);
  report.Note(line);
  report.Note(speed.Describe(static_cast<double>(sim_ticks) / median_sweep_s));

  if (!opts.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("ticks_per_sec", ticks_per_sec, "1/s");
    report.Set("detection_delay_s", delay_s, "s");
    return;
  }

  // RunRobustnessSweep takes no probe, so the sweep has no per-layer split:
  // eval.host_ns_per_sim_tick is its whole cost per tick, and the single
  // runs carry the split of the same simulator code.
  speed.SetMetrics(report);
  report.Set("sweep_s", median_sweep_s, "s");
  report.Set("sweep_recall", recall_sum / static_cast<double>(cells), "ratio");
  report.Set("sweep_specificity", specificity_sum / static_cast<double>(cells),
             "ratio");
  report.Set("eval.cells", static_cast<double>(cells), "count");
  report.Set("eval.sim_ticks", static_cast<double>(sim_ticks), "count");
  report.Set("eval.host_ns_per_sim_tick",
             median_sweep_s * 1e9 / static_cast<double>(sim_ticks), "ns");
  report.Set("eval.cpu_per_wall", Median(cpu_per_wall), "ratio");
  report.Set("fault.injected", static_cast<double>(injected), "count");
  report.Set("detect.profile_ms", Median(profile_ms), "ms");
  report.Set("signal.detect_period_us",
             DetectPeriodUs(detect::ChannelSeries(clean,
                                                  pcm::Channel::kAccessNum)),
             "us");
  report.Set("sim.bare_ns_per_access", BareNsPerCacheAccess(), "ns");
  const std::string path = opts.out_dir + "/trace-fault_sweep.jsonl";
  report.Check("span file written",
               WriteSpans(path, "fault_sweep", opts.seed, spans), path);
}

}  // namespace perfbench
