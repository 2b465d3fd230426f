// Fleet observability bench: ingest rate, rollup memory ceiling and alert
// precision/recall of the obs plane (DESIGN.md §13, EXPERIMENTS.md).
//
// Drives eval::RunFleetObsSweep — a synthetic fleet of hosts x tenants
// emitting detector health metrics with a known ground-truth attack window —
// through the sharded FleetRollup and the SLO engine, then prints the fleet
// health table and a machine-readable `BENCH_fleetobs {json}` line for trend
// tracking across commits. The sweep cross-checks the sharded barrier merge
// against a single-shard reference on every run, so a determinism regression
// fails CI here even before the unit tests run.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/fleetobs.h"

int main(int argc, char** argv) {
  using namespace sds;

  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"hosts", "simulated hosts (default 16)"},
           {"tenants", "tenants per host (default 8)"},
           {"ticks", "stream length in ticks (default 6000)"},
           {"window", "rollup window in ticks (default 100)"},
           {"shards", "rollup shards (default 8)"},
           {"threads", "ingest worker threads (default 8)"},
           {"max_series", "live-series ceiling per shard (default 4096)"},
           {"seed", "stream seed (default 42)"},
           {"attacked", "attacked pair fraction (default 0.25)"},
           {"smoke", "tiny fleet: CI smoke test"},
           {"json_out", "also write the BENCH_fleetobs JSON to this file"},
           {"rollup_out", "write rollup + SLO JSONL here (trace_inspect "
                          "input)"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  eval::FleetObsConfig config;
  config.hosts = static_cast<std::uint32_t>(flags.GetInt("hosts", 16));
  config.tenants_per_host =
      static_cast<std::uint32_t>(flags.GetInt("tenants", 8));
  config.ticks = flags.GetInt("ticks", 6000);
  config.window_ticks = flags.GetInt("window", 100);
  config.shards = static_cast<std::uint32_t>(flags.GetInt("shards", 8));
  config.threads = static_cast<int>(flags.GetInt("threads", 8));
  config.max_series_per_shard =
      static_cast<std::size_t>(flags.GetInt("max_series", 4096));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.attacked_fraction = flags.GetDouble("attacked", 0.25);

  if (flags.GetBool("smoke", false)) {
    config.hosts = 4;
    config.tenants_per_host = 4;
    config.ticks = 1200;
    config.shards = 4;
    config.threads = 4;
  }

  bench::PrintBenchHeader(
      std::cout, "bench_fleetobs",
      "Fleet observability plane (no paper counterpart): sharded rollup "
      "ingest rate, fixed-memory ceiling, SLO alerting and alert "
      "precision/recall vs ground-truth attack windows");
  std::cout << "hosts=" << config.hosts
            << " tenants/host=" << config.tenants_per_host
            << " ticks=" << config.ticks << " shards=" << config.shards
            << " threads=" << config.threads << " seed=" << config.seed
            << "\n\n";

  std::ofstream rollup_out;
  std::ostream* rollup_stream = nullptr;
  const std::string rollup_path = flags.GetString("rollup_out", "");
  if (!rollup_path.empty()) {
    rollup_out.open(rollup_path);
    if (!rollup_out) {
      std::cerr << "cannot write " << rollup_path << "\n";
      return 1;
    }
    rollup_stream = &rollup_out;
  }

  const eval::FleetObsResult result =
      eval::RunFleetObsSweep(config, rollup_stream);

  std::cout << "ingest: " << result.samples << " samples in "
            << FormatFixed(result.ingest_wall_seconds, 3) << " s ("
            << FormatFixed(result.ingest_rate_per_sec / 1e6, 2)
            << " Msamples/s across " << config.shards << " shards)\n";
  std::cout << "rollup: " << result.rows << " rows, " << result.live_series
            << " live series, "
            << FormatFixed(
                   static_cast<double>(result.rollup_memory_bytes) / 1024.0, 1)
            << " KiB ceiling, drops late/series/samples = "
            << result.dropped_late << "/" << result.dropped_series << "/"
            << result.dropped_samples << "\n";
  std::cout << "slo:    " << result.slo_alerts << " alerts ("
            << result.slo_pages << " page, " << result.slo_warns
            << " warn) over " << result.attacked_pairs
            << " attacked pairs\n";
  std::cout << "determinism: sharded merge "
            << (result.verified_single_shard
                    ? (result.sharded_matches_single_shard
                           ? "bit-identical to single-shard reference"
                           : "MISMATCH vs single-shard reference")
                    : "not cross-checked")
            << "\n\n";

  TextTable table;
  table.SetHeader({"threshold", "tp", "fp", "fn", "precision", "recall"});
  for (const eval::ThresholdPoint& p : result.curve) {
    table.Row(FormatFixed(p.threshold, 0), TextTable::Str(p.true_positives),
              TextTable::Str(p.false_positives),
              TextTable::Str(p.false_negatives), FormatFixed(p.precision, 3),
              FormatFixed(p.recall, 3));
  }
  table.Print(std::cout);

  std::cout << "\nShape check: precision and recall should both be high near "
               "the 600-tick SLO\nthreshold and trade off away from it; a "
               "sharded-merge mismatch is a determinism\nregression.\n\n";

  if (!bench::EmitBenchJson(std::cout, "fleetobs",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              eval::WriteFleetObsJson(config, result, os);
                            })) {
    return 1;
  }
  if (!rollup_path.empty()) {
    std::cout << "rollup JSONL written to " << rollup_path << "\n";
  }
  return result.verified_single_shard && !result.sharded_matches_single_shard
             ? 1
             : 0;
}
