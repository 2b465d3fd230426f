// svc_ingest: the streaming detection service with no simulator behind it.
// A seed-generated healthy fleet — per-tenant (access, miss) samples, about
// a third of the tenants shifting their statistics partway through — is
// rendered to the service's JSONL wire format and parsed back (set-up), then
// offered to svc::DetectionService on an in-memory store as a closed loop:
// each tick offers that tick's batch and advances the service clock. The
// tenant count stays below the tenant-table capacity and each batch fits
// one tick's drain, so the queue empties every tick. Every pass ends by
// recovering a fresh service from a copy of the store.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "signal/period_detect.h"
#include "svc/sample.h"
#include "svc/service.h"
#include "svc/store.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace sds;

constexpr TickClock kClock;
// A third of them shift. Per-tenant delays spread widely (see below), so
// the fleet is large enough for its mean delay to be steady across seeds.
constexpr std::uint32_t kTenants = 144;
constexpr Tick kTicks = 4000;
// Leaves 2000 ticks after the shift: SDS/B needs h_c = 30 EWMA values at a
// 50-sample step (1500 samples) after its 200-sample window moves.
constexpr Tick kShiftTick = 2000;

svc::SvcConfig ServiceConfig() {
  svc::SvcConfig c;
  c.pipeline.mode = svc::PipelineMode::kSds;
  // Table 1 detector parameters; a profile long enough (1000 samples, 17
  // MA values) that no healthy tenant's boundary is drawn too tight.
  c.pipeline.profile_len = 1000;
  // Room for the whole fleet: no LRU eviction, one batch drains per tick,
  // and a batch never reaches the coalesce or shed depth.
  c.max_tenants = 160;
  c.drain_per_tick = 160;
  c.admission.coalesce_depth = 256;
  c.admission.shed_depth = 512;
  return c;
}

struct Feed {
  std::vector<std::vector<svc::SvcSample>> batches;  // one per tick
  std::vector<bool> shifted;                         // per tenant
  std::size_t samples = 0;
};

// Renders each sample to its wire line and parses it back, as a feed reader
// would; offsets are the 1-based line numbers.
Feed BuildFeed(std::uint64_t seed) {
  Rng rng(seed);
  Feed feed;
  feed.shifted.assign(kTenants, false);
  std::vector<std::uint32_t> order(kTenants);
  for (std::uint32_t u = 0; u < kTenants; ++u) order[u] = u;
  for (std::uint32_t i = kTenants - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(std::uint64_t{i} + 1)]);
  }
  for (std::uint32_t i = 0; i < kTenants / 3; ++i) {
    feed.shifted[order[i]] = true;
  }

  feed.batches.resize(static_cast<std::size_t>(kTicks));
  for (Tick t = 0; t < kTicks; ++t) {
    for (std::uint32_t u = 0; u < kTenants; ++u) {
      svc::SvcSample s;
      s.tenant = u;
      s.tick = t;
      double access = 2200.0 + 600.0 * rng.UniformDouble();
      if (feed.shifted[u] && t >= kShiftTick) {
        access += 2600.0 + 400.0 * rng.UniformDouble();
      }
      const double ratio = 0.25 + 0.10 * rng.UniformDouble();
      s.access_num = static_cast<std::uint64_t>(access);
      s.miss_num = static_cast<std::uint64_t>(access * ratio);
      std::optional<svc::SvcSample> parsed =
          svc::ParseSampleLine(svc::FormatSampleLine(s));
      SDS_CHECK(parsed.has_value(), "generated feed line failed to parse");
      parsed->offset = ++feed.samples;
      feed.batches[static_cast<std::size_t>(t)].push_back(*parsed);
    }
  }
  return feed;
}

// A MemStore that counts the bytes the service writes.
class CountingStore final : public svc::StableStore {
 public:
  bool AppendWal(std::string_view bytes) override {
    wal_bytes_ += bytes.size();
    return inner_.AppendWal(bytes);
  }
  bool WriteCheckpoint(std::string_view blob) override {
    checkpoint_bytes_ = blob.size();
    return inner_.WriteCheckpoint(blob);
  }
  bool TruncateWal(std::uint64_t bytes) override {
    return inner_.TruncateWal(bytes);
  }
  std::string ReadWal() const override { return inner_.ReadWal(); }
  std::string ReadCheckpoint() const override {
    return inner_.ReadCheckpoint();
  }
  bool crashed() const override { return inner_.crashed(); }

  svc::MemStore Reincarnate() const { return inner_.Reincarnate(); }
  std::uint64_t wal_bytes() const { return wal_bytes_; }
  std::uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }

 private:
  svc::MemStore inner_;
  std::uint64_t wal_bytes_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;
};

struct PassResult {
  double ingest_s = 0.0;
  double ingest_ref_s = 0.0;  // in reference seconds (HostSpeed)
  std::vector<double> tick_us;  // Offer batch + AdvanceTick, per tick
  double recover_ms = 0.0;
  bool ok = true;  // no Offer/AdvanceTick failed
  bool recovered_equal = false;
  std::uint64_t replayed = 0;
  svc::SvcAccounting accounting;
  svc::SvcIncarnation incarnation;
  std::vector<svc::AlarmEvent> alarms;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Traced pass only.
  std::vector<double> offer_ns;
  std::vector<double> advance_us;
  std::vector<double> checkpoint_us;  // advances that wrote a checkpoint
  double offer_total_ns = 0.0;
  double advance_total_ns = 0.0;
  std::uint64_t probe_reads = 0;
  std::vector<Span> spans;
};

PassResult Pass(const Feed& feed, bool traced) {
  const svc::SvcConfig config = ServiceConfig();
  CountingStore store;
  svc::DetectionService service(config, &store);
  service.Recover();  // cold start

  PassResult r;
  r.tick_us.reserve(static_cast<std::size_t>(kTicks));
  std::uint64_t checkpoints = 0;
  const std::int64_t start = NowNs();
  for (Tick t = 0; t < kTicks; ++t) {
    const std::int64_t t0 = NowNs();
    r.ok = service.AdvanceTick(t) && r.ok;
    const std::int64_t t1 = NowNs();
    std::int64_t offers_ns = 0;
    for (const svc::SvcSample& s : feed.batches[static_cast<std::size_t>(t)]) {
      if (traced) {
        const std::int64_t o0 = NowNs();
        r.ok = service.Offer(s) && r.ok;
        const std::int64_t o = NowNs() - o0;
        offers_ns += o;
        r.offer_ns.push_back(static_cast<double>(o));
        r.probe_reads += 2;
      } else {
        r.ok = service.Offer(s) && r.ok;
      }
    }
    const std::int64_t t2 = NowNs();
    r.tick_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    if (traced) {
      const auto root = static_cast<std::int32_t>(r.spans.size());
      r.spans.push_back({"tick", t0, t2, -1});
      r.spans.push_back({"svc.advance_tick", t0, t1, root});
      r.spans.push_back({"svc.offer_batch", t1, t2, root});
      const double advance_ns = static_cast<double>(t1 - t0);
      r.advance_total_ns += advance_ns;
      r.offer_total_ns += static_cast<double>(offers_ns);
      r.advance_us.push_back(advance_ns / 1e3);
      if (service.incarnation().checkpoints_written != checkpoints) {
        checkpoints = service.incarnation().checkpoints_written;
        r.checkpoint_us.push_back(advance_ns / 1e3);
      }
    }
  }
  // Quiesce: the last batch drains on the next advance.
  Tick t = kTicks;
  while (service.queue_depth() > 0) r.ok = service.AdvanceTick(t++) && r.ok;
  r.ingest_s = static_cast<double>(NowNs() - start) / 1e9;

  // Recovery of a fresh service from a copy of the store's surviving bytes.
  svc::MemStore copy = store.Reincarnate();
  svc::DetectionService recovered(config, &copy);
  const std::int64_t r0 = NowNs();
  recovered.Recover();
  r.recover_ms = static_cast<double>(NowNs() - r0) / 1e6;
  r.recovered_equal = recovered.decision_log() == service.decision_log() &&
                      recovered.alarm_log() == service.alarm_log() &&
                      recovered.accounting() == service.accounting();
  r.replayed = recovered.incarnation().recovery_replayed_records;
  r.accounting = service.accounting();
  r.incarnation = service.incarnation();
  r.alarms = service.alarm_log();
  r.wal_bytes = store.wal_bytes();
  r.checkpoint_bytes = store.checkpoint_bytes();
  return r;
}

}  // namespace

void RunSvcIngest(const Options& opts, Report& report) {
  HostSpeed speed;
  std::vector<double> setup_s;
  Feed feed;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    feed = BuildFeed(opts.seed);
    svc::MemStore store;
    svc::DetectionService service(ServiceConfig(), &store);
    service.Recover();
    setup_s.push_back(speed.Normalize(SecondsSince(start)));
  }

  const Clock::time_point start = Clock::now();
  std::vector<PassResult> bare, traced;
  do {
    bare.push_back(Pass(feed, false));
    bare.back().ingest_ref_s = speed.Normalize(bare.back().ingest_s);
    report.Done();
    if (opts.trace) {
      traced.push_back(Pass(feed, true));
      traced.back().ingest_ref_s = speed.Normalize(traced.back().ingest_s);
      report.Done();
    }
  } while (SecondsSince(start) < opts.seconds || bare.size() < 3);

  // Simulated outcome: identical in every pass.
  const PassResult& first = bare.front();
  bool passes_agree = true;
  for (const auto* passes : {&bare, &traced}) {
    for (const PassResult& p : *passes) {
      passes_agree = passes_agree && p.ok && p.alarms == first.alarms &&
                     p.accounting == first.accounting;
    }
  }
  report.Check("passes agree and every offer succeeds", passes_agree);
  bool recovered_equal = true;
  for (const PassResult& p : bare) {
    recovered_equal = recovered_equal && p.recovered_equal;
  }
  report.Check("recovered service equals the live one", recovered_equal,
               "decision log, alarm log and accounting");
  std::map<std::uint32_t, Tick> first_alarm;
  for (const svc::AlarmEvent& a : first.alarms) {
    if (a.tick >= kShiftTick && !first_alarm.count(a.tenant)) {
      first_alarm[a.tenant] = a.tick;
    }
  }
  std::uint32_t shifted = 0;
  std::vector<double> delays;
  for (std::uint32_t u = 0; u < kTenants; ++u) {
    if (!feed.shifted[u]) continue;
    ++shifted;
    const auto it = first_alarm.find(u);
    if (it == first_alarm.end()) continue;
    delays.push_back(static_cast<double>(it->second - kShiftTick));
  }
  report.Check("every shifted tenant alarms", delays.size() == shifted,
               std::to_string(delays.size()) + "/" + std::to_string(shifted));
  report.Check("queue drains every tick (nothing coalesced or shed)",
               first.accounting.coalesced == 0 && first.accounting.shed == 0 &&
                   first.accounting.admitted == feed.samples);

  const auto collect = [](const std::vector<PassResult>& passes, auto field) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(field(p));
    return v;
  };
  const auto rates = [&](const std::vector<PassResult>& passes,
                         bool raw = false) {
    return collect(passes, [raw](const PassResult& p) {
      return static_cast<double>(kTicks) / (raw ? p.ingest_s : p.ingest_ref_s);
    });
  };
  const double ticks_per_sec = Median(rates(bare));
  // Mean over the shifted tenants: per-tenant delays spread from about 0.4x
  // to 1x of h_c * step, by how many out-of-range values a tenant had
  // already counted when its shift began.
  double delay_sum = 0.0;
  for (const double d : delays) delay_sum += d;
  const double delay_s =
      delays.empty() ? 0.0
                     : kClock.ToSeconds(1) * delay_sum /
                           static_cast<double>(delays.size());
  char line[256];
  std::snprintf(line, sizeof line,
                "svc: %u tenants x %lld ticks = %zu samples; %.0f ticks/s "
                "(median of %zu passes); mean shift->alarm %.2f s",
                kTenants, static_cast<long long>(kTicks), feed.samples,
                ticks_per_sec, bare.size(), delay_s);
  report.Note(line);
  report.Note(speed.Describe(Median(rates(bare, true))));

  if (!opts.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("ticks_per_sec", ticks_per_sec, "1/s");
    report.Set("detection_delay_s", delay_s, "s");
    return;
  }

  // -- Per-layer metrics ---------------------------------------------------
  std::vector<double> tick_us;
  for (const PassResult& p : bare) {
    tick_us.insert(tick_us.end(), p.tick_us.begin(), p.tick_us.end());
  }
  std::vector<double> offer_ns, advance_us, checkpoint_us;
  double offer_total = 0.0, advance_total = 0.0, probe_reads = 0.0;
  for (const PassResult& p : traced) {
    offer_ns.insert(offer_ns.end(), p.offer_ns.begin(), p.offer_ns.end());
    advance_us.insert(advance_us.end(), p.advance_us.begin(),
                      p.advance_us.end());
    checkpoint_us.insert(checkpoint_us.end(), p.checkpoint_us.begin(),
                         p.checkpoint_us.end());
    offer_total += p.offer_total_ns;
    advance_total += p.advance_total_ns;
    probe_reads += static_cast<double>(p.probe_reads);
  }
  const double traced_ticks =
      static_cast<double>(kTicks) * static_cast<double>(traced.size());
  const double traced_rate = Median(rates(traced));

  // Ledger: Offer + AdvanceTick per tick. The checkpoint ticks' advance
  // beyond the median advance is the obs snapshot envelope + store write;
  // the per-Offer probes' own reads are the unattributed remainder.
  const double probe_ns = ProbeCostNs();
  const double median_advance_ns = Median(advance_us) * 1e3;
  double obs_ns = 0.0;
  for (const double c : checkpoint_us) {
    obs_ns += std::max(0.0, c * 1e3 - median_advance_ns);
  }
  const double unattributed = probe_ns * probe_reads;
  const double total = offer_total + advance_total;
  const double svc_self = total - obs_ns - unattributed;
  report.Note("traced ledger (host ns per tick, self time):");
  const struct {
    const char* layer;
    double ns;
  } rows[] = {{"svc", svc_self},
              {"obs", obs_ns},
              {"unattributed", unattributed}};
  for (const auto& row : rows) {
    std::snprintf(line, sizeof line, "  %s: %.1f ns (%.1f%%)", row.layer,
                  row.ns / traced_ticks, 100.0 * row.ns / total);
    report.Note(line);
    report.Set(std::string("ledger.") + row.layer + "_ns_per_tick",
               row.ns / traced_ticks, "ns");
  }
  std::snprintf(line, sizeof line,
                "  sum = traced Offer + AdvanceTick = %.1f ns per tick; "
                "tracing overhead %.1f%% (%.0f vs %.0f ticks/s)",
                total / traced_ticks,
                100.0 * (1.0 - traced_rate / ticks_per_sec), traced_rate,
                ticks_per_sec);
  report.Note(line);
  report.Set("ledger.total_ns_per_tick", total / traced_ticks, "ns");
  speed.SetMetrics(report);
  report.Set("trace.ticks_per_sec", traced_rate, "1/s");
  report.Set("trace.overhead_pct", 100.0 * (1.0 - traced_rate / ticks_per_sec),
             "%");
  report.Set("trace.probe_ns", probe_ns, "ns");

  const double samples = static_cast<double>(feed.samples);
  report.Set("svc_samples_per_sec", ticks_per_sec * samples / kTicks, "1/s");
  report.Set("svc_tick_us_p50", Quantile(tick_us, 0.5), "us");
  report.Set("svc_tick_us_p99", Quantile(tick_us, 0.99), "us");
  report.Set("svc_recover_ms",
             Median(collect(bare, [](const PassResult& p) {
               return p.recover_ms;
             })),
             "ms");
  report.Set("svc.offer_ns_p50", Quantile(offer_ns, 0.5), "ns");
  report.Set("svc.offer_ns_p99", Quantile(offer_ns, 0.99), "ns");
  report.Set("svc.advance_tick_us_p50", Quantile(advance_us, 0.5), "us");
  report.Set("svc.advance_tick_us_p99", Quantile(advance_us, 0.99), "us");
  report.Set("svc.checkpoint_us", Median(checkpoint_us), "us");
  report.Set("svc.admit_ratio",
             static_cast<double>(first.accounting.admitted) /
                 static_cast<double>(std::max<std::uint64_t>(
                     first.accounting.offered, 1)),
             "ratio");
  report.Set("svc.wal_bytes_per_sample",
             static_cast<double>(first.wal_bytes) / samples, "B");
  report.Set("svc.checkpoints",
             static_cast<double>(first.incarnation.checkpoints_written),
             "count");
  report.Set("svc.recover_replayed_records",
             static_cast<double>(first.replayed), "count");
  report.Set("obs.checkpoint_bytes",
             static_cast<double>(first.checkpoint_bytes), "B");
  report.Set("detect.alarm_events", static_cast<double>(first.alarms.size()),
             "count");

  // The period detector on one tenant's pre-shift series (what each
  // tenant pipeline's profile runs on a longer window).
  std::vector<double> series;
  for (Tick t = 0; t < kShiftTick; ++t) {
    series.push_back(static_cast<double>(
        feed.batches[static_cast<std::size_t>(t)][0].access_num));
  }
  report.Set("signal.detect_period_us", DetectPeriodUs(series), "us");

  const std::string path = opts.out_dir + "/trace-svc_ingest.jsonl";
  report.Check("span file written",
               WriteSpans(path, "svc_ingest", opts.seed, traced.front().spans),
               path);
}

}  // namespace perfbench
