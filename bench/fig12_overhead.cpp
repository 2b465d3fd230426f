// Figure 12: performance overhead on applications running on co-located VMs.
//
// For every application and every detection scheme, a protected VM is
// monitored while a co-located VM runs the same application to a fixed
// amount of work; no attack is launched. The normalized execution time
// (relative to running with no detection scheme) is the figure's metric.
// Baselines are computed once per (application, seed) and shared across
// schemes; the (application, seed) cells run in parallel.
#include <iostream>

#include "common/bench_common.h"
#include "common/check.h"
#include "common/csv.h"
#include "common/flags.h"
#include "eval/aggregate.h"
#include "eval/report.h"
#include "stats/descriptive.h"
#include "workloads/catalog.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(argc, argv, {"runs", "work-units", "seed"})) return 1;
  const int runs = static_cast<int>(flags.GetInt("runs", 5));
  const auto work =
      static_cast<std::uint64_t>(flags.GetInt("work-units", 2000));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 51));

  bench::PrintBenchHeader(
      std::cout, "bench_fig12_overhead",
      "Figure 12: normalized execution time of a co-located application "
      "under each detection scheme (no attack running)");

  TextTable table;
  table.SetHeader({"application", "SDS", "SDS/B", "SDS/P", "KStest"});

  const std::vector<eval::Scheme> schemes = {
      eval::Scheme::kSds, eval::Scheme::kSdsB, eval::Scheme::kSdsP,
      eval::Scheme::kKsTest};
  const std::vector<workloads::AppInfo>& apps = workloads::AppCatalog();

  // One cell per (application, run): the shared baseline run plus one run
  // per scheme, all on the run's seed. Cells run in parallel.
  const std::vector<std::vector<double>> cells = eval::RunCells(
      static_cast<int>(apps.size()) * runs, nullptr, [&](int i) {
        eval::OverheadRunConfig cfg;
        cfg.app = apps[static_cast<std::size_t>(i / runs)].name;
        cfg.work_target_units = work;
        const auto run_seed = seed + static_cast<std::uint64_t>(i % runs);
        cfg.scheme = eval::Scheme::kNone;
        const auto base = eval::RunOverheadRun(cfg, run_seed);
        std::vector<double> ratios;
        for (const eval::Scheme scheme : schemes) {
          cfg.scheme = scheme;
          const auto with = eval::RunOverheadRun(cfg, run_seed);
          SDS_CHECK(base.completed && with.completed,
                    "overhead run hit the tick cap; raise max_ticks");
          ratios.push_back(static_cast<double>(with.completion_ticks) /
                           static_cast<double>(base.completion_ticks));
        }
        return ratios;
      });

  double sds_total = 0.0;
  double ks_total = 0.0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<std::string> row = {apps[a].name};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      std::vector<double> ratios;
      for (int r = 0; r < runs; ++r) {
        ratios.push_back(cells[a * static_cast<std::size_t>(runs) +
                               static_cast<std::size_t>(r)][s]);
      }
      const auto summary = Summarize(ratios);
      row.push_back(FormatFixed(summary.median, 3));
      if (schemes[s] == eval::Scheme::kSds) sds_total += summary.median;
      if (schemes[s] == eval::Scheme::kKsTest) ks_total += summary.median;
    }
    table.AddRow(row);
  }
  const auto app_count = static_cast<double>(apps.size());
  std::cout << "\nnormalized execution time (median of " << runs
            << " paired runs; 1.000 = no overhead):\n\n";
  table.Print(std::cout);
  std::cout << "\nmean overhead: SDS "
            << FormatFixed((sds_total / app_count - 1.0) * 100.0, 1)
            << "%  vs  KStest "
            << FormatFixed((ks_total / app_count - 1.0) * 100.0, 1)
            << "%\nShape check (paper): SDS (and SDS/B, SDS/P) 1-2%; KStest "
               "3-8% due to throttled reference collection and the "
               "identification sweeps.\n";
  return 0;
}
