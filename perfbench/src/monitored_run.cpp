// The two single-run workloads: one long monitored run of the paper's
// Section 5.1 deployment (victim + attacker + 7 benign VMs), driven as a
// closed loop — RunTick, then the detector's OnTick, then the next tick.
//
//   buslock_sds       kmeans victim, bus-lock attacker, combined SDS
//   cleansing_kstest  terasort victim, LLC-cleansing attacker, KStest
//
// Passes over the same seed: telemetry detached (the end-to-end tick rate),
// telemetry attached, and the traced pass. All of them must produce the
// same simulated-statistics fingerprint.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/bus_lock_attacker.h"
#include "attacks/llc_cleansing_attacker.h"
#include "attacks/scheduled_workload.h"
#include "detect/kstest_detector.h"
#include "detect/profile.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "harness.h"
#include "pcm/pcm_sampler.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace perfbench {
namespace {

using namespace sds;

// Ticks run before the detector starts, as in eval's protocol.
constexpr Tick kWarmupTicks = 500;
// The traced pass times, on average, one decorator call in this many.
constexpr std::uint64_t kOpSampleEvery = 32;
// T_PCM: one tick is one 10 ms sampling interval.
constexpr TickClock kClock;

struct RunSpec {
  const char* workload;
  const char* app;
  eval::AttackKind attack;
  bool kstest;  // false: combined SDS
  Tick profile_ticks;
  Tick clean_ticks;
  Tick attack_ticks;
};

// Host time of the per-op bodies, estimated by sampling. Call counts are
// exact; on average one decorator call in kOpSampleEvery is timed. Right
// before each timed interval the probe times an empty interval, which
// measures in place what one probe adds to an interval (a clock read costs
// more after a cache-thrashing access than after a cheap one), and each
// kind of interval is corrected by the mean of its own empty intervals.
struct OpClock {
  // Body kinds of the decorated calls, plus the NextOp -> OnOutcome gap.
  enum Kind { kBegin, kNext, kOutcome, kGap, kKinds };

  bool armed = false;  // only the traced pass times anything
  std::uint64_t calls[2][kKinds] = {};  // [attacker][kind]; kGap: ops
  std::int64_t sampled_ns[2][kKinds] = {};
  std::int64_t empty_ns[2][kKinds] = {};
  std::uint64_t sampled[2][kKinds] = {};
  std::uint64_t reads = 0;  // clock reads taken inside RunTick
  std::int64_t all_empty_ns = 0;
  std::uint64_t all_empties = 0;

  bool gap_open = false;
  std::int64_t op_returned_ns = 0;
  std::uint64_t lcg = 0x853c49e6748fea9bull;
  std::uint64_t countdown = 1;

  // A pseudo-random countdown with mean kOpSampleEvery, so the sample does
  // not alias with the hypervisor's round-robin chunking. Independent of the
  // simulation's RNG streams.
  bool Sample() {
    if (--countdown != 0) return false;
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    countdown = 1 + (lcg >> 33) % (2 * kOpSampleEvery - 1);
    return true;
  }
  // Times an empty interval; returns the end of the interval before it and
  // the start of the one after it, and the probe cost between them.
  std::int64_t Open(std::int64_t* before = nullptr) {
    const std::int64_t e0 = NowNs();
    const std::int64_t e1 = NowNs();
    if (before) *before = e0;
    empty_ = e1 - e0;
    all_empty_ns += empty_;
    ++all_empties;
    reads += 2;
    return e1;
  }
  void Close(int who, Kind kind, std::int64_t start, std::int64_t end) {
    sampled_ns[who][kind] += end - start;
    empty_ns[who][kind] += empty_;
    ++sampled[who][kind];
    if (kind != kGap) ++reads;
  }
  // Mean in-place cost of one probe read inside RunTick.
  double probe_ns() const {
    return all_empties == 0 ? 0.0 : static_cast<double>(all_empty_ns) /
                                         static_cast<double>(all_empties);
  }
  // Estimated host ns of one kind over all its calls, probe cost removed.
  double Ns(int who, Kind kind) const {
    if (sampled[who][kind] == 0) return 0.0;
    const auto n = static_cast<double>(sampled[who][kind]);
    return static_cast<double>(calls[who][kind]) *
           static_cast<double>(sampled_ns[who][kind] - empty_ns[who][kind]) /
           n;
  }
  double BodyNs(int who) const {
    return Ns(who, kBegin) + Ns(who, kNext) + Ns(who, kOutcome);
  }
  double SimNs() const { return Ns(0, kGap) + Ns(1, kGap); }
  std::uint64_t ops(int who) const { return calls[who][kGap]; }

 private:
  std::int64_t empty_ = 0;
};

// Forwards every call to the real workload; in the traced pass it counts
// the calls and times the sampled ones.
class TimedWorkload final : public vm::Workload {
 public:
  TimedWorkload(std::unique_ptr<vm::Workload> inner, OpClock& clock,
                bool attacker)
      : inner_(std::move(inner)), c_(clock), who_(attacker ? 1 : 0) {}

  void Bind(LineAddr base, Rng rng) override { inner_->Bind(base, rng); }

  void BeginTick(Tick now) override {
    if (!c_.armed) return inner_->BeginTick(now);
    ++c_.calls[who_][OpClock::kBegin];
    if (!c_.Sample()) return inner_->BeginTick(now);
    const std::int64_t t0 = c_.Open();
    inner_->BeginTick(now);
    c_.Close(who_, OpClock::kBegin, t0, NowNs());
  }

  bool NextOp(sim::MemOp& op) override {
    if (!c_.armed) return inner_->NextOp(op);
    ++c_.calls[who_][OpClock::kNext];
    bool more = false;
    if (!c_.Sample()) {
      more = inner_->NextOp(op);
    } else {
      const std::int64_t t0 = c_.Open();
      more = inner_->NextOp(op);
      const std::int64_t t1 = NowNs();
      c_.Close(who_, OpClock::kNext, t0, t1);
      c_.gap_open = more;
      c_.op_returned_ns = t1;
    }
    if (more) ++c_.calls[who_][OpClock::kGap];
    return more;
  }

  void OnOutcome(const sim::MemOp& op, sim::AccessOutcome outcome) override {
    if (!c_.armed) return inner_->OnOutcome(op, outcome);
    ++c_.calls[who_][OpClock::kOutcome];
    std::int64_t t0 = 0;
    if (c_.gap_open) {
      // The op's NextOp was sampled: close its gap, then time this body
      // too (both corrected by the empty interval taken here).
      std::int64_t gap_end = 0;
      t0 = c_.Open(&gap_end);
      c_.Close(who_, OpClock::kGap, c_.op_returned_ns, gap_end);
      c_.gap_open = false;
    } else if (c_.Sample()) {
      t0 = c_.Open();
    } else {
      return inner_->OnOutcome(op, outcome);
    }
    inner_->OnOutcome(op, outcome);
    c_.Close(who_, OpClock::kOutcome, t0, NowNs());
  }

  std::uint64_t work_completed() const override {
    return inner_->work_completed();
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<vm::Workload> inner_;
  OpClock& c_;
  int who_;
};

// eval::BuildScenario's VM line-up, creation order and seeds, with every
// VM's program wrapped in a TimedWorkload.
eval::Scenario BuildTimedScenario(const eval::ScenarioConfig& config,
                                  OpClock& clock) {
  std::unique_ptr<vm::Workload> program;
  if (config.attack == eval::AttackKind::kBusLock) {
    program = std::make_unique<attacks::BusLockAttacker>(config.bus_lock);
  } else {
    attacks::LlcCleansingConfig cc = config.cleansing;
    cc.cache_sets = config.machine.cache.sets;
    cc.cache_ways = config.machine.cache.ways;
    program = std::make_unique<attacks::LlcCleansingAttacker>(cc);
  }
  eval::Scenario s;
  s.machine = std::make_unique<sim::Machine>(config.machine);
  Rng root(config.seed);
  s.hypervisor = std::make_unique<vm::Hypervisor>(*s.machine,
                                                  config.hypervisor,
                                                  root.Fork());
  s.victim = s.hypervisor->CreateVm(
      "victim-" + config.app,
      std::make_unique<TimedWorkload>(workloads::MakeApp(config.app), clock,
                                      false));
  s.attacker = s.hypervisor->CreateVm(
      "attacker", std::make_unique<TimedWorkload>(
                      std::make_unique<attacks::ScheduledWorkload>(
                          std::move(program), config.attack_start,
                          config.attack_stop),
                      clock, true));
  for (int i = 0; i < config.benign_vms; ++i) {
    s.hypervisor->CreateVm("benign-" + std::to_string(i),
                           std::make_unique<TimedWorkload>(
                               workloads::MakeBenignUtility(), clock, false));
  }
  return s;
}

// The detector's sample source: a PcmSampler behind a forwarding
// SampleSource that fingerprints the victim's per-tick sample stream in
// every pass and, when timing, records the host time of each read.
class ProbeSource final : public pcm::SampleSource {
 public:
  ProbeSource(vm::Hypervisor& hypervisor, OwnerId target, bool timed,
              std::vector<double>* access_series)
      : sampler_(hypervisor, target),
        timed_(timed),
        access_series_(access_series) {}

  void Start() override { sampler_.Start(); }
  void Stop() override { sampler_.Stop(); }
  bool started() const override { return sampler_.started(); }
  OwnerId target() const override { return sampler_.target(); }
  Tick last_span() const override { return sampler_.last_span(); }
  bool healthy() const override { return sampler_.healthy(); }
  bool TryRestart() override { return sampler_.TryRestart(); }

  std::optional<pcm::PcmSample> Next() override {
    if (timed_) start_ns_ = NowNs();
    std::optional<pcm::PcmSample> s = sampler_.Next();
    if (timed_) end_ns_ = NowNs();
    if (s) {
      fingerprint_.Add(static_cast<std::uint64_t>(s->tick));
      fingerprint_.Add(s->access_num);
      fingerprint_.Add(s->miss_num);
      if (access_series_) {
        access_series_->push_back(static_cast<double>(s->access_num));
      }
    } else {
      fingerprint_.Add(~0ull);
    }
    return s;
  }

  std::uint64_t fingerprint() const { return fingerprint_.value(); }
  // Host interval of the most recent read (timed sources only); zero-length
  // when the detector did not read this tick.
  std::int64_t start_ns() const { return start_ns_; }
  std::int64_t end_ns() const { return end_ns_; }
  void ClearInterval() { start_ns_ = end_ns_ = 0; }

 private:
  pcm::PcmSampler sampler_;
  bool timed_;
  std::vector<double>* access_series_;
  Fingerprint fingerprint_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
};

enum class PassKind { kBare, kTelemetry, kTraced };

const char* PassName(PassKind kind) {
  switch (kind) {
    case PassKind::kBare:
      return "telemetry-off";
    case PassKind::kTelemetry:
      return "telemetry-on";
    case PassKind::kTraced:
      return "traced";
  }
  return "?";
}

// What the traced passes accumulate (pooled across passes).
struct Ledger {
  std::vector<Span> spans;
  OpClock ops;
  std::uint64_t ticks = 0;
  std::int64_t run_tick_ns = 0;
  std::int64_t on_tick_ns = 0;
  std::int64_t pcm_ns = 0;  // raw read intervals
  std::uint64_t pcm_reads = 0;
  std::vector<double> run_tick_us;
  std::vector<double> detect_ns;  // OnTick minus the pcm read, per tick
  std::vector<double> pcm_read_ns;
  std::uint64_t throttled_ticks = 0;
  Tick llc_fill_tick = -1;
};

struct PassResult {
  Tick ticks = 0;
  double loop_s = 0.0;      // host seconds of the monitored loop
  double loop_ref_s = 0.0;  // the same in reference seconds (HostSpeed)
  std::uint64_t fingerprint = 0;
  bool alarm_before_attack = false;
  std::optional<Tick> delay_ticks;
  std::uint64_t alarm_events = 0;
  std::uint64_t ks_decisions = 0;
  std::uint64_t identification_sweeps = 0;
  // Simulated counter deltas over the monitored loop (all owners).
  std::uint64_t llc_accesses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t bus_stalls = 0;
  std::uint64_t monitor_dropped = 0;
  // Telemetry pass only.
  std::vector<std::uint64_t> emitted_by_layer;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  Tick total_ticks = 0;  // warm-up included
};

struct Totals {
  std::uint64_t accesses = 0, misses = 0, atomics = 0, stalls = 0;
};

Totals SumCounters(const sim::Machine& machine, std::size_t vms) {
  Totals t;
  for (OwnerId o = 0; o <= vms; ++o) {
    const sim::OwnerCounters& c = machine.counters(o);
    t.accesses += c.llc_accesses;
    t.misses += c.llc_misses;
    t.atomics += c.atomic_ops;
    t.stalls += c.bus_stalls;
  }
  return t;
}

bool LlcFull(const sim::Machine& machine, std::size_t vms) {
  std::size_t valid = 0;
  for (OwnerId o = 0; o <= vms; ++o) {
    valid += machine.cache().CountOwnerLines(o);
  }
  return valid == machine.cache().total_lines();
}

class MonitoredRun {
 public:
  MonitoredRun(const RunSpec& spec, std::uint64_t seed) : spec_(spec) {
    Rng rng(seed);
    profile_seed_ = rng();
    main_seed_ = rng();
    attack_start_ = kWarmupTicks + spec.clean_ticks;
  }

  // Set-up: profile collection + BuildSdsProfile (SDS only), scenario build
  // and warm-up. Returns host seconds; keeps the profile for the passes.
  double Setup(double* profile_ms, std::uint64_t* profile_fp) {
    const Clock::time_point start = Clock::now();
    if (!spec_.kstest) {
      eval::ScenarioConfig base;
      base.app = spec_.app;
      clean_ = eval::CollectCleanSamples(base, spec_.profile_ticks,
                                         profile_seed_);
      const std::int64_t p0 = NowNs();
      profile_ = detect::BuildSdsProfile(clean_, params_);
      *profile_ms = static_cast<double>(NowNs() - p0) / 1e6;
      Fingerprint fp;
      fp.AddDouble(profile_.access_boundary.mean);
      fp.AddDouble(profile_.access_boundary.stddev);
      fp.AddDouble(profile_.miss_boundary.mean);
      fp.AddDouble(profile_.miss_boundary.stddev);
      fp.Add(profile_.periodic() ? 1 : 0);
      *profile_fp = fp.value();
    }
    eval::Scenario s = eval::BuildScenario(ScenarioConfig(nullptr));
    s.RunTicks(kWarmupTicks);
    return SecondsSince(start);
  }

  PassResult Pass(PassKind kind, Ledger* ledger) {
    std::unique_ptr<telemetry::Telemetry> tel;
    if (kind == PassKind::kTelemetry) {
      tel = std::make_unique<telemetry::Telemetry>();
    }
    const eval::ScenarioConfig config = ScenarioConfig(tel.get());
    eval::Scenario s = kind == PassKind::kTraced
                           ? BuildTimedScenario(config, ledger->ops)
                           : eval::BuildScenario(config);
    vm::Hypervisor& hv = *s.hypervisor;
    const std::size_t vms = hv.vm_count();
    const bool traced = kind == PassKind::kTraced;

    for (Tick t = 0; t < kWarmupTicks; ++t) {
      hv.RunTick();
      if (traced) WatchFill(s, ledger);
    }

    ProbeSource source(hv, s.victim, traced,
                       traced ? &traced_access_ : nullptr);
    if (traced) traced_access_.clear();
    std::unique_ptr<detect::Detector> detector;
    detect::KsTestDetector* ks = nullptr;
    if (spec_.kstest) {
      detect::KsTestParams kp;
      // Pinned grid phase: the first reference refresh completes just
      // before the attack starts and the next one is L_R later, so the
      // delay measures the KS/identification pipeline, not a random phase.
      kp.initial_offset = 0;
      auto d = std::make_unique<detect::KsTestDetector>(
          hv, s.victim, kp, detect::KsIdentificationParams{}, &source,
          detect::DegradeConfig{});
      ks = d.get();
      detector = std::move(d);
    } else {
      detector = std::make_unique<detect::SdsDetector>(
          hv, s.victim, profile_, params_, detect::SdsMode::kCombined,
          &source, detect::DegradeConfig{});
    }

    PassResult r;
    Fingerprint fp;
    const Totals before = SumCounters(*s.machine, vms);
    const std::uint64_t dropped_before = hv.monitor_dropped_ops();
    const Tick loop_ticks = spec_.clean_ticks + spec_.attack_ticks;
    std::uint64_t seen_alarms = 0;
    std::uint64_t alarms_at_attack = 0;

    const std::int64_t loop_start = NowNs();
    for (Tick t = 0; t < loop_ticks; ++t) {
      if (hv.now() + 1 == attack_start_) {
        // The next tick is the attack's first (BeginTick advances now()).
        alarms_at_attack = detector->alarm_events();
        r.alarm_before_attack =
            alarms_at_attack > 0 || detector->attack_active();
      }
      if (traced) {
        TracedTick(s, *detector, source, ledger);
      } else {
        hv.RunTick();
        detector->OnTick();
      }
      if (detector->alarm_events() != seen_alarms) {
        seen_alarms = detector->alarm_events();
        fp.Add(static_cast<std::uint64_t>(detector->last_alarm_trigger_tick()));
        fp.Add(static_cast<std::uint64_t>(hv.now()));
        if (!r.delay_ticks && seen_alarms > alarms_at_attack &&
            detector->last_alarm_trigger_tick() >= attack_start_) {
          r.delay_ticks = hv.now() - attack_start_;
        }
      }
    }
    r.loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
    r.ticks = loop_ticks;
    r.total_ticks = hv.now();

    const Totals after = SumCounters(*s.machine, vms);
    r.llc_accesses = after.accesses - before.accesses;
    r.llc_misses = after.misses - before.misses;
    r.atomic_ops = after.atomics - before.atomics;
    r.bus_stalls = after.stalls - before.stalls;
    r.monitor_dropped = hv.monitor_dropped_ops() - dropped_before;
    r.alarm_events = detector->alarm_events();
    if (ks) {
      r.ks_decisions = ks->decisions().size();
      r.identification_sweeps = ks->identification_sweeps();
    }
    for (OwnerId o = 0; o <= vms; ++o) {
      const sim::OwnerCounters& c = s.machine->counters(o);
      fp.Add(c.llc_accesses);
      fp.Add(c.llc_misses);
      fp.Add(c.atomic_ops);
      fp.Add(c.bus_stalls);
      fp.AddDouble(c.dram_latency_ns);
    }
    fp.Add(hv.monitor_dropped_ops());
    fp.Add(source.fingerprint());
    r.fingerprint = fp.value();
    if (tel) {
      for (std::size_t l = 0; l < telemetry::kLayerCount; ++l) {
        r.emitted_by_layer.push_back(tel->tracer().emitted_by_layer(
            static_cast<telemetry::Layer>(l)));
      }
      r.emitted = tel->tracer().emitted();
      r.dropped = tel->tracer().dropped();
    }
    return r;
  }

  Tick attack_start() const { return attack_start_; }
  const std::vector<pcm::PcmSample>& clean() const { return clean_; }
  // AccessNum of every sample the detector read in the last traced pass.
  const std::vector<double>& traced_access() const { return traced_access_; }

 private:
  eval::ScenarioConfig ScenarioConfig(telemetry::Telemetry* tel) const {
    eval::ScenarioConfig c;
    c.app = spec_.app;
    c.attack = spec_.attack;
    c.attack_start = attack_start_;
    c.seed = main_seed_;
    c.machine.telemetry = tel;
    return c;
  }

  void WatchFill(const eval::Scenario& s, Ledger* ledger) {
    if (ledger->llc_fill_tick >= 0 || s.machine->now() % 16 != 0) return;
    if (LlcFull(*s.machine, s.hypervisor->vm_count())) {
      ledger->llc_fill_tick = s.machine->now();
    }
  }

  // One traced tick: spans around RunTick and OnTick (and the pcm read
  // inside it); the workload decorators sample ops inside RunTick.
  void TracedTick(eval::Scenario& s, detect::Detector& detector,
                  ProbeSource& source, Ledger* ledger) {
    vm::Hypervisor& hv = *s.hypervisor;
    bool throttled = hv.throttling_active();
    for (OwnerId o = 1; o <= hv.vm_count() && !throttled; ++o) {
      throttled = hv.vm_throttled(o);
    }
    source.ClearInterval();

    const std::int64_t t0 = NowNs();
    ledger->ops.armed = true;
    hv.RunTick();
    ledger->ops.armed = false;
    const std::int64_t t1 = NowNs();
    detector.OnTick();
    const std::int64_t t2 = NowNs();

    const auto root = static_cast<std::int32_t>(ledger->spans.size());
    ledger->spans.push_back({"tick", t0, t2, -1});
    ledger->spans.push_back({"vm.run_tick", t0, t1, root});
    ledger->spans.push_back({"detect.on_tick", t1, t2, root});
    const std::int64_t pcm_ns = source.end_ns() - source.start_ns();
    if (source.end_ns() != 0) {
      ledger->spans.push_back({"pcm.sample", source.start_ns(),
                               source.end_ns(), root + 2});
      ledger->pcm_read_ns.push_back(static_cast<double>(pcm_ns));
      ledger->pcm_ns += pcm_ns;
      ledger->pcm_reads += 2;
    }
    ++ledger->ticks;
    ledger->run_tick_ns += t1 - t0;
    ledger->on_tick_ns += t2 - t1;
    ledger->run_tick_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ledger->detect_ns.push_back(static_cast<double>((t2 - t1) - pcm_ns));
    if (throttled) ++ledger->throttled_ticks;
    WatchFill(s, ledger);
  }

  RunSpec spec_;
  std::uint64_t profile_seed_ = 0;
  std::uint64_t main_seed_ = 0;
  Tick attack_start_ = 0;
  detect::DetectorParams params_;
  std::vector<pcm::PcmSample> clean_;
  detect::SdsProfile profile_;
  std::vector<double> traced_access_;
};

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// Self time per layer, host ns per traced tick. Layers the probes cannot
// see directly are span residuals: vm = RunTick minus the op bodies and
// the sim gaps; detect = OnTick minus the pcm read. The probes' own clock
// reads (counted, at the in-place probe cost) belong to no layer: they are
// the unattributed remainder, and the rows sum to RunTick + OnTick.
void ReportLedger(const Ledger& l, Report& report) {
  const OpClock& o = l.ops;
  const double n = static_cast<double>(std::max<std::uint64_t>(l.ticks, 1));
  const double c = o.probe_ns();
  const double reads_run_tick = static_cast<double>(o.reads + l.ticks);
  const double reads_on_tick = static_cast<double>(l.pcm_reads + l.ticks);
  const double workloads = o.BodyNs(0);
  const double attacks = o.BodyNs(1);
  const double sim = o.SimNs();
  const double pcm = static_cast<double>(l.pcm_ns) -
                     c * static_cast<double>(l.pcm_reads / 2);
  const double vm = static_cast<double>(l.run_tick_ns) - workloads - attacks -
                    sim - c * reads_run_tick;
  const double detect =
      static_cast<double>(l.on_tick_ns) - pcm - c * reads_on_tick;
  const double unattributed = c * (reads_run_tick + reads_on_tick);
  const double total = static_cast<double>(l.run_tick_ns + l.on_tick_ns);

  report.Note("traced ledger over " + std::to_string(l.ticks) +
              " ticks (self time, host ns per tick):");
  const struct {
    const char* layer;
    double ns;
    const char* metric;
  } rows[] = {{"workloads", workloads, "ledger.workloads_ns_per_tick"},
              {"attacks", attacks, "ledger.attacks_ns_per_tick"},
              {"sim", sim, "ledger.sim_ns_per_tick"},
              {"vm", vm, "vm.self_ns_per_tick"},
              {"pcm", pcm, "ledger.pcm_ns_per_tick"},
              {"detect", detect, "ledger.detect_ns_per_tick"},
              {"unattributed", unattributed,
               "ledger.unattributed_ns_per_tick"}};
  for (const auto& row : rows) {
    report.Note("  " + std::string(row.layer) +
                Fmt(": %.1f ns (%.1f%%)", row.ns / n,
                    total > 0 ? 100.0 * row.ns / total : 0.0));
    report.Set(row.metric, row.ns / n, "ns");
  }
  report.Note(Fmt("  sum = traced RunTick + OnTick = %.1f ns per tick",
                  total / n));
  report.Set("ledger.total_ns_per_tick", total / n, "ns");

  const double wops = static_cast<double>(o.ops(0));
  const double aops = static_cast<double>(o.ops(1));
  report.Set("workloads.ops_per_tick", wops / n, "count");
  report.Set("workloads.ns_per_op", wops > 0 ? workloads / wops : 0.0, "ns");
  report.Set("attacks.ops_per_tick", aops / n, "count");
  report.Set("attacks.ns_per_op", aops > 0 ? attacks / aops : 0.0, "ns");
  report.Set("sim.ns_per_op", wops + aops > 0 ? sim / (wops + aops) : 0.0,
             "ns");
  report.Set("vm.run_tick_us_p50", Quantile(l.run_tick_us, 0.5), "us");
  report.Set("vm.run_tick_us_p99", Quantile(l.run_tick_us, 0.99), "us");
  report.Set("pcm.sample_ns_p50", Quantile(l.pcm_read_ns, 0.5), "ns");
  report.Set("detect.on_tick_ns_p50", Quantile(l.detect_ns, 0.5), "ns");
  report.Set("detect.on_tick_ns_p99", Quantile(l.detect_ns, 0.99), "ns");
  report.Set("trace.probe_ns", c, "ns");
  report.Set("vm.throttled_tick_share",
             static_cast<double>(l.throttled_ticks) / n, "ratio");
  report.Set("sim.llc_fill_tick", static_cast<double>(l.llc_fill_tick),
             "tick");
  report.Note(l.llc_fill_tick >= 0
                  ? "LLC starts empty; first full at simulated tick " +
                        std::to_string(l.llc_fill_tick)
                  : std::string("LLC starts empty; never full in this run"));
}

void Run(const RunSpec& spec, const Options& opts, Report& report) {
  MonitoredRun run(spec, opts.seed);

  // Set-up, repeated so its median is steady.
  HostSpeed speed;
  std::vector<double> setup_s;
  std::vector<double> profile_ms;
  std::uint64_t profile_fp = 0;
  bool profile_repeats = true;
  for (int i = 0; i < 3; ++i) {
    double ms = 0.0;
    std::uint64_t fp = 0;
    setup_s.push_back(speed.Normalize(run.Setup(&ms, &fp)));
    profile_ms.push_back(ms);
    if (i > 0 && fp != profile_fp) profile_repeats = false;
    profile_fp = fp;
  }
  report.Check("setup is deterministic", profile_repeats);

  const Clock::time_point start = Clock::now();
  std::vector<PassResult> bare, telem, traced;
  Ledger ledger;
  std::uint64_t reference_fp = 0;
  bool fp_equal = true;
  std::vector<std::string> mismatches;
  const auto pass = [&](PassKind kind, std::vector<PassResult>& into) {
    PassResult r =
        run.Pass(kind, kind == PassKind::kTraced ? &ledger : nullptr);
    r.loop_ref_s = speed.Normalize(r.loop_s);
    if (bare.empty() && telem.empty() && traced.empty()) {
      reference_fp = r.fingerprint;
    } else if (r.fingerprint != reference_fp) {
      fp_equal = false;
      mismatches.push_back(std::string(PassName(kind)) + "=" +
                           Hex(r.fingerprint));
    }
    report.Done();
    into.push_back(std::move(r));
  };

  if (!opts.trace) {
    // One telemetry-attached pass for the transparency check, then the
    // measured telemetry-off passes for the rest of the budget.
    pass(PassKind::kTelemetry, telem);
    do {
      pass(PassKind::kBare, bare);
    } while (SecondsSince(start) < opts.seconds || bare.size() < 3);
  } else {
    do {
      pass(PassKind::kBare, bare);
      pass(PassKind::kTraced, traced);
      pass(PassKind::kTelemetry, telem);
    } while (SecondsSince(start) < opts.seconds);
  }

  const PassResult& first = bare.front();
  std::string fp_detail = "fingerprint " + Hex(reference_fp) + " over " +
                          std::to_string(bare.size() + telem.size() +
                                         traced.size()) +
                          " passes";
  for (const std::string& m : mismatches) fp_detail += "; " + m;
  report.Check("passes agree (telemetry off/on/traced)", fp_equal, fp_detail);
  if (spec.kstest) {
    report.Check("KStest alarms at or after the attack start",
                 first.delay_ticks.has_value(),
                 first.delay_ticks
                     ? "delay " + std::to_string(*first.delay_ticks) + " ticks"
                     : "no alarm triggered after the attack start");
  } else {
    report.Check("SDS raises no alarm before the attack",
                 !first.alarm_before_attack);
    report.Check("SDS alarms after the attack starts",
                 first.delay_ticks.has_value(),
                 first.delay_ticks
                     ? "delay " + std::to_string(*first.delay_ticks) + " ticks"
                     : "no alarm after the attack start");
  }

  const auto rates = [](const std::vector<PassResult>& passes,
                        bool raw = false) {
    std::vector<double> v;
    for (const PassResult& p : passes) {
      v.push_back(static_cast<double>(p.ticks) /
                  (raw ? p.loop_s : p.loop_ref_s));
    }
    return v;
  };
  const double ticks_per_sec = Median(rates(bare));
  const double ticks_per_sec_telemetry = Median(rates(telem));
  const double delay_s =
      kClock.ToSeconds(first.delay_ticks.value_or(0));
  report.Note(Fmt("ticks/s: %.0f telemetry off (median of %.0f passes), "
                  "%.0f telemetry on",
                  ticks_per_sec, static_cast<double>(bare.size()),
                  ticks_per_sec_telemetry));
  report.Note(speed.Describe(Median(rates(bare, true))));
  report.Note(Fmt("simulated: attack at tick %.0f, detection delay %.2f s",
                  static_cast<double>(run.attack_start()), delay_s));

  if (!opts.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("ticks_per_sec", ticks_per_sec, "1/s");
    report.Set("detection_delay_s", delay_s, "s");
    return;
  }

  // -- Per-layer metrics (traced run) --------------------------------------
  ReportLedger(ledger, report);
  speed.SetMetrics(report);
  const double traced_rate = Median(rates(traced));
  report.Set("ticks_per_sec_telemetry", ticks_per_sec_telemetry, "1/s");
  report.Set("telemetry.tax_pct",
             100.0 * (1.0 - ticks_per_sec_telemetry / ticks_per_sec), "%");
  report.Set("trace.ticks_per_sec", traced_rate, "1/s");
  report.Set("trace.overhead_pct", 100.0 * (1.0 - traced_rate / ticks_per_sec),
             "%");
  report.Note(Fmt("tracing overhead: %.0f traced vs %.0f untraced ticks/s "
                  "(%.1f%%)",
                  traced_rate, ticks_per_sec,
                  100.0 * (1.0 - traced_rate / ticks_per_sec)));

  const double ticks = static_cast<double>(first.ticks);
  report.Set("sim.llc_accesses_per_tick",
             static_cast<double>(first.llc_accesses) / ticks, "count");
  report.Set("sim.llc_hit_ratio",
             first.llc_accesses == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(first.llc_misses) /
                             static_cast<double>(first.llc_accesses),
             "ratio");
  report.Set("sim.atomic_ops_per_tick",
             static_cast<double>(first.atomic_ops) / ticks, "count");
  report.Set("sim.bus_stalls_per_tick",
             static_cast<double>(first.bus_stalls) / ticks, "count");
  report.Set("sim.bare_ns_per_access", BareNsPerCacheAccess(), "ns");
  report.Set("vm.monitor_dropped_ops_per_tick",
             static_cast<double>(first.monitor_dropped) / ticks, "count");
  report.Set("detect.profile_ms", Median(profile_ms), "ms");
  report.Set("detect.alarm_events", static_cast<double>(first.alarm_events),
             "count");
  report.Set("detect.ks_decisions", static_cast<double>(first.ks_decisions),
             "count");
  report.Set("detect.identification_sweeps",
             static_cast<double>(first.identification_sweeps), "count");

  // The analysis primitives on this run's own series, where the detector
  // uses them: the period detector profiles SDS's clean window; the KS test
  // compares W_R x W_M windows of the samples KStest collected.
  if (spec.kstest) {
    report.Set("stats.ks_test_ns",
               KsTestNs(run.traced_access(),
                        static_cast<std::size_t>(detect::KsTestParams{}.w_r)),
               "ns");
  } else {
    report.Set("signal.detect_period_us",
               DetectPeriodUs(detect::ChannelSeries(run.clean(),
                                                    pcm::Channel::kAccessNum)),
               "us");
  }

  const PassResult& on = telem.front();
  const double all_ticks = static_cast<double>(on.total_ticks);
  report.Set("telemetry.events_per_tick",
             static_cast<double>(on.emitted) / all_ticks, "count");
  for (std::size_t l = 0; l < telemetry::kLayerCount; ++l) {
    report.Set(std::string("telemetry.events_per_tick.") +
                   telemetry::LayerName(static_cast<telemetry::Layer>(l)),
               static_cast<double>(on.emitted_by_layer[l]) / all_ticks,
               "count");
  }
  report.Set("telemetry.dropped", static_cast<double>(on.dropped), "count");

  const std::string path =
      opts.out_dir + "/trace-" + spec.workload + ".jsonl";
  report.Check("span file written", WriteSpans(path, spec.workload, opts.seed,
                                               ledger.spans),
               path + " (" + std::to_string(ledger.spans.size()) + " spans)");
}

}  // namespace

void RunBuslockSds(const Options& opts, Report& report) {
  Run({"buslock_sds", "kmeans", eval::AttackKind::kBusLock, false,
       /*profile_ticks=*/12000, /*clean_ticks=*/3000, /*attack_ticks=*/5000},
      opts, report);
}

void RunCleansingKstest(const Options& opts, Report& report) {
  // clean_ticks = L_R + 300: the first reference refresh (grid offset 0)
  // lands 300 ticks before the attack starts.
  Run({"cleansing_kstest", "terasort", eval::AttackKind::kLlcCleansing, true,
       /*profile_ticks=*/0, /*clean_ticks=*/3300, /*attack_ticks=*/4000},
      opts, report);
}

}  // namespace perfbench
