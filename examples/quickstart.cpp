// Quickstart: the smallest end-to-end use of the library.
//
//   1. Build the standard cloud deployment (victim + attacker + 7 benign
//      VMs on one simulated server).
//   2. Profile the victim application while it is known clean.
//   3. Attach the SDS detector and run: 60 s clean, then a bus locking
//      attack — and watch the alarm fire.
//   4. Read the detector's decision audit trail back out of the attached
//      telemetry handle (the same data --telemetry_out + trace_inspect use),
//      and reconstruct the incident timeline: attack -> first check ->
//      violation streak -> alarm, with the detection delay decomposed.
//   5. With the hardware attribution ledger enabled, ask the forensics
//      engine WHO did it: the alarm collapses the evidence window into a
//      ranked-suspect forensic report (DESIGN.md section 15).
//
// Build & run:  ./build/examples/quickstart
//               ./build/examples/quickstart --telemetry_out quickstart.jsonl
// The optional --telemetry_out writes the run's telemetry JSONL stream
// (events, audit records, metrics), the same format the benches write;
// read it with ./build/tools/trace_inspect.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "detect/forensics.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"telemetry_out",
                     "write the run's telemetry JSONL to this path"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string telemetry_out = flags.GetString("telemetry_out", "");
  const TickClock clock;  // 1 tick = T_PCM = 0.01 s of virtual time

  // One telemetry handle for the whole run: attaching it to the machine
  // config is the only wiring observability needs.
  telemetry::Telemetry telemetry;

  // -- Stage 1: profile the application while the VM is known clean. ------
  eval::ScenarioConfig base;
  base.app = "kmeans";
  const auto clean_samples =
      eval::CollectCleanSamples(base, clock.ToTicks(120.0), /*seed=*/7);
  detect::DetectorParams params;  // Table 1 defaults
  const detect::SdsProfile profile =
      detect::BuildSdsProfile(clean_samples, params);
  std::printf("profiled %s: AccessNum mu=%.0f sigma=%.0f, periodic=%s\n",
              base.app.c_str(), profile.access_boundary.mean,
              profile.access_boundary.stddev,
              profile.periodic() ? "yes" : "no");

  // -- Deployment: attack VM co-located, attack launches at t=60 s. --------
  eval::ScenarioConfig cfg;
  cfg.app = "kmeans";
  cfg.attack = eval::AttackKind::kBusLock;
  cfg.attack_start = clock.ToTicks(60.0);
  cfg.seed = 42;
  cfg.machine.telemetry = &telemetry;
  // Tag inter-VM evictions and bus stalls with their culprit so the alarm
  // below can be attributed from hardware evidence (off by default; the
  // ledger never perturbs simulated timing, only records it).
  cfg.machine.attribution = true;
  eval::Scenario scenario = eval::BuildScenario(cfg);

  detect::SdsDetector detector(*scenario.hypervisor, scenario.victim, profile,
                               params, detect::SdsMode::kCombined);
  detect::ForensicsEngine forensics(*scenario.hypervisor, scenario.victim);

  // -- Run 120 s and report the first alarm. -------------------------------
  const Tick total = clock.ToTicks(120.0);
  Tick alarm_tick = kInvalidTick;
  for (Tick t = 0; t < total; ++t) {
    scenario.hypervisor->RunTick();
    detector.OnTick();
    forensics.OnTick();
    if (alarm_tick == kInvalidTick && detector.attack_active()) {
      alarm_tick = scenario.hypervisor->now();
      forensics.OnAlarm(alarm_tick);
    }
  }

  if (alarm_tick == kInvalidTick) {
    std::printf("no alarm raised — unexpected, check the configuration\n");
    return 1;
  }
  std::printf(
      "attack launched at t=%.0fs; SDS raised the alarm at t=%.1fs "
      "(detection delay %.1fs)\n",
      clock.ToSeconds(cfg.attack_start), clock.ToSeconds(alarm_tick),
      clock.ToSeconds(alarm_tick - cfg.attack_start));

  // -- Why did it fire? Ask the audit log for the decisive check. ----------
  for (const auto& rec : telemetry.audit().records()) {
    if (!rec.alarm || !rec.violation || rec.tick != alarm_tick) continue;
    std::printf(
        "decisive %s %s check on %s: value %.0f outside [%.0f, %.0f] "
        "by %.2f sigma-margins, %d consecutive violations\n",
        rec.detector, rec.check, rec.channel, rec.value, rec.lower, rec.upper,
        rec.margin, rec.consecutive);
    break;
  }

  // -- And WHO: the hardware attribution ledger's verdict. -----------------
  if (!forensics.reports().empty()) {
    detect::WriteForensicReportText(std::cout, forensics.reports().front());
    std::cout.flush();
  }

  // -- And WHEN: the reconstructed incident timeline with the detection
  // delay split into sampling wait / detector compute / debounce. ----------
  const auto incidents = telemetry::ReconstructIncidents(
      telemetry, {.attack_start = cfg.attack_start});
  telemetry::WriteIncidentReport(std::cout, incidents, telemetry);
  std::cout.flush();

  std::printf(
      "(%llu events traced, %zu decisions audited; a full JSONL stream of "
      "this is what bench --telemetry_out writes)\n",
      static_cast<unsigned long long>(telemetry.tracer().emitted()),
      telemetry.audit().size());

  if (!telemetry_out.empty()) {
    if (!telemetry.WriteJsonlFile(telemetry_out)) {
      std::fprintf(stderr, "cannot write %s\n", telemetry_out.c_str());
      return 1;
    }
    std::printf("telemetry written to %s (read it with tools/trace_inspect)\n",
                telemetry_out.c_str());
  }
  return 0;
}
