// trace_inspect: summarizes any JSONL stream this repo writes — telemetry
// (telemetry::Telemetry::WriteJsonl via --telemetry_out, or
// pcm::WriteTraceJsonl), fleet rollup + SLO records (bench_fleetobs
// --rollup_out), streaming-service accounting (bench_svc_chaos_sweep
// --accounting_out), forensic incident reports (bench_attrib_sweep
// --forensics_out), host-chaos runs (bench_hostchaos --trace_out), the
// perfbench ledger (perfbench/run.py --trace 1) and the
// `sdslint --stats --stats-out` payload. One record switch routes every line
// to its family, and each family the stream carries prints one section.
//
//   trace_inspect run.jsonl                  every section the stream feeds
//   trace_inspect run.jsonl --layer=detect   restrict event tables to a layer
//   trace_inspect run.jsonl --audit          dump every audit record
//   trace_inspect run.jsonl --events=N       also dump the first N events
//   trace_inspect fleet.jsonl --metric=NAME  rank tenants by this metric
//                                            (default detect.latency_ticks)
//   trace_inspect fleet.jsonl --top=K        show K noisiest tenants (def 10)
//   trace_inspect fleet.jsonl --alerts=N     dump the first N SLO alerts
//   trace_inspect svc.jsonl --svc            per-crash-point service
//                                            recovery rows
//   trace_inspect attrib.jsonl --forensics   per-suspect evidence rows under
//                                            each forensic incident report
//   trace_inspect chaos.jsonl --hostchaos    per-transition host timeline,
//                                            evacuation and handoff rows
//   trace_inspect lint_stats.json --lint     per-rule lint hit counts
//
// Malformed input NEVER crashes the tool (the reader is tools/jsonl.h):
// every line is counted as a record, an empty line, an unparseable line or
// an unknown record type, and everything parseable is still summarized.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/types.h"
#include "jsonl.h"
#include "telemetry/metrics.h"

namespace {

using sds::FormatFixed;
using sds::TextTable;
using sds::TickClock;
using sds::tools::IntOr;
using sds::tools::IsTrue;
using sds::tools::JsonObject;
using sds::tools::NumOr;
using sds::tools::ParseLine;
using sds::tools::ParseNumberArray;
using sds::tools::ParseObjectArray;
using sds::tools::StrOr;

struct Options {
  std::string layer;
  bool audit = false;
  std::size_t events = 0;
  std::string metric;
  std::size_t top = 10;
  std::size_t alerts = 0;
  bool svc = false;
  bool forensics = false;
  bool hostchaos = false;
  bool lint = false;
};

const TickClock kClock;

// "t=     400 (   4.00s)" — the tick plus its virtual time.
void PrintTick(long long tick) {
  std::printf("t=%8lld (%7.2fs)", tick, kClock.ToSeconds(tick));
}

// ---------------------------------------------------------------------------
// Telemetry: header, tracer_stats, event, audit, metric.
// ---------------------------------------------------------------------------

struct LayerSummary {
  long long events = 0;
  long long first_tick = -1;
  long long last_tick = -1;
};

struct AuditSummary {
  long long records = 0;
  long long violations = 0;
  long long alarmed = 0;
  double worst_margin = -1e300;
};

struct Telemetry {
  std::optional<JsonObject> header;
  std::optional<JsonObject> tracer_stats;
  long long events = 0;
  long long audit_records = 0;
  std::map<std::string, LayerSummary> layers;
  std::map<std::string, long long> event_counts;  // "layer/event"
  std::map<std::string, AuditSummary> audits;     // "detector/check"
  std::map<std::string, long long> fault_events;  // layer=fault, by name
  // check=degrade audit records, keyed "consumer/action".
  std::map<std::string, long long> degrade_actions;
  // check=actuation audit records (the MitigationEngine's retry / escalate /
  // verify / rollback steps), keyed by channel; plus the terminal
  // check=mitigation records as an incident timeline.
  std::map<std::string, long long> actuation_steps;
  std::vector<JsonObject> mitigations;
  std::vector<JsonObject> alarm_timeline;  // alarm events + audits
  std::map<std::string, bool> alarm_state;  // per detector
  std::vector<JsonObject> metrics;
  std::vector<std::string> dump;

  bool empty() const {
    return !header && !tracer_stats && events == 0 && audit_records == 0 &&
           metrics.empty();
  }

  void AddEvent(const JsonObject& o, const std::string& line,
                const Options& opt) {
    const std::string layer = StrOr(o, "layer", "?");
    const std::string event = StrOr(o, "event", "?");
    const long long tick = IntOr(o, "tick", -1);
    ++events;
    auto& ls = layers[layer];
    ++ls.events;
    if (ls.first_tick < 0) ls.first_tick = tick;
    ls.last_tick = tick;
    if (opt.layer.empty() || layer == opt.layer) {
      ++event_counts[layer + "/" + event];
      if (dump.size() < opt.events) dump.push_back(line);
    }
    if (event == "alarm_raised" || event == "alarm_cleared") {
      alarm_timeline.push_back(o);
    }
    if (layer == "fault") ++fault_events[event];
  }

  void AddAudit(const JsonObject& o, const std::string& line,
                const Options& opt) {
    ++audit_records;
    const std::string detector = StrOr(o, "detector", "?");
    const std::string check = StrOr(o, "check", "?");
    const bool alarm = IsTrue(o, "alarm");
    auto& as = audits[detector + "/" + check];
    ++as.records;
    if (IsTrue(o, "violation")) ++as.violations;
    if (alarm) ++as.alarmed;
    if (o.count("margin") != 0) {
      as.worst_margin = std::max(as.worst_margin, NumOr(o, "margin", -1e300));
    }
    // Audit records survive ring overflow, so reconstruct alarm transitions
    // from them even when the alarm_raised event itself was dropped from the
    // retained event window.
    const auto [state, inserted] = alarm_state.emplace(detector, false);
    if (state->second != alarm) {
      state->second = alarm;
      JsonObject transition = o;
      transition["event"] =
          alarm ? "alarm_raised (audit)" : "alarm_cleared (audit)";
      alarm_timeline.push_back(std::move(transition));
    }
    if (check == "degrade") {
      ++degrade_actions[detector + "/" + StrOr(o, "channel", "?")];
    }
    if (check == "actuation") ++actuation_steps[StrOr(o, "channel", "?")];
    if (check == "mitigation") mitigations.push_back(o);
    if (opt.audit) dump.push_back(line);
  }

  void Print(const Options& opt) {
    std::printf("\ntelemetry\n");
    if (header) {
      std::printf("  emitted=%lld dropped=%lld audit_records=%lld\n",
                  IntOr(*header, "events_emitted", 0),
                  IntOr(*header, "events_dropped", 0),
                  IntOr(*header, "audit_records", 0));
    }
    std::printf("  parsed: %lld events, %lld audit records, %zu metrics\n",
                events, audit_records, metrics.size());
    if (tracer_stats) PrintTracerRing(*tracer_stats);

    std::printf("\nper-layer summary\n");
    std::printf("  %-12s %10s %12s %12s\n", "layer", "events", "first-tick",
                "last-tick");
    for (const auto& [name, ls] : layers) {
      std::printf("  %-12s %10lld %12lld %12lld\n", name.c_str(), ls.events,
                  ls.first_tick, ls.last_tick);
    }
    std::printf("\nper-event counts%s\n",
                opt.layer.empty() ? ""
                                  : (" (layer=" + opt.layer + ")").c_str());
    for (const auto& [key, count] : event_counts) {
      std::printf("  %-40s %10lld\n", key.c_str(), count);
    }

    if (!audits.empty()) {
      std::printf("\naudit summary (detector/check)\n");
      std::printf("  %-24s %8s %10s %8s %12s\n", "detector/check", "records",
                  "violations", "alarmed", "worst-margin");
      for (const auto& [key, as] : audits) {
        std::printf("  %-24s %8lld %10lld %8lld ", key.c_str(), as.records,
                    as.violations, as.alarmed);
        // Degradation audits carry no margin; leave the column blank.
        if (as.worst_margin > -1e300) {
          std::printf("%12.4f\n", as.worst_margin);
        } else {
          std::printf("%12s\n", "-");
        }
      }
    }

    if (!fault_events.empty() || !degrade_actions.empty()) {
      // The monitoring-plane story of the run: what the FaultInjector did to
      // the sample stream, and how the detectors' degradation gates
      // responded.
      std::printf("\nmonitoring-plane faults & degradation\n");
      PrintCounts("fault-layer event", fault_events);
      PrintCounts("degradation (consumer/action)", degrade_actions);
    }

    if (!actuation_steps.empty() || !mitigations.empty()) {
      // The actuation-plane story: every deviation from the clean dispatch
      // -> settle path (retries, timeouts, escalations, verification
      // verdicts, rollbacks) plus the terminal mitigation record(s). A clean
      // run shows only the mitigation line — any step row means the control
      // plane had to fight.
      std::printf("\nactuation incidents\n");
      for (const auto& [channel, count] : actuation_steps) {
        std::printf("  %-40s %10lld\n", channel.c_str(), count);
      }
      for (const auto& o : mitigations) {
        std::printf("  ");
        PrintTick(IntOr(o, "tick", -1));
        std::printf("  mitigation applied: policy=%s%s\n",
                    StrOr(o, "channel", "?").c_str(),
                    IsTrue(o, "violation") ? " (fallback: attacker unattributed)"
                                           : "");
      }
    }

    if (!alarm_timeline.empty()) {
      // Event lines precede audit lines in the stream; interleave by tick.
      std::stable_sort(alarm_timeline.begin(), alarm_timeline.end(),
                       [](const JsonObject& a, const JsonObject& b) {
                         return NumOr(a, "tick", -1) < NumOr(b, "tick", -1);
                       });
      std::printf("\nalarm timeline\n");
      for (const auto& o : alarm_timeline) {
        std::printf("  ");
        PrintTick(IntOr(o, "tick", -1));
        std::printf("  %-14s %s", StrOr(o, "event", "?").c_str(),
                    StrOr(o, "detector", "?").c_str());
        const auto owner = o.find("owner");
        if (owner != o.end()) std::printf(" owner=%s", owner->second.c_str());
        std::printf("\n");
      }
    } else {
      std::printf("\nalarm timeline: (no alarm events)\n");
    }

    if (!metrics.empty()) {
      std::printf("\nmetrics snapshot\n");
      for (const auto& o : metrics) PrintMetric(o);
    }

    if (!dump.empty()) {
      std::printf("\ndumped lines\n");
      for (const auto& l : dump) std::printf("  %s\n", l.c_str());
    }
  }

  static void PrintCounts(const char* title,
                          const std::map<std::string, long long>& counts) {
    if (counts.empty()) return;
    std::printf("  %-40s %10s\n", title, "count");
    for (const auto& [name, count] : counts) {
      std::printf("  %-40s %10lld\n", name.c_str(), count);
    }
  }

  // Ring saturation report: a saturated ring silently discards the oldest
  // events, so say exactly how much history was lost and whose it was.
  static void PrintTracerRing(const JsonObject& s) {
    const long long dropped = IntOr(s, "dropped", 0);
    const long long emitted = IntOr(s, "emitted", 0);
    std::printf("\ntracer ring: capacity=%lld retained=%lld emitted=%lld "
                "dropped=%lld",
                IntOr(s, "capacity", 0), IntOr(s, "retained", 0), emitted,
                dropped);
    if (dropped > 0 && emitted > 0) {
      std::printf(" (%.1f%% of emitted events lost)",
                  100.0 * static_cast<double>(dropped) /
                      static_cast<double>(emitted));
    }
    std::printf("\n");
    if (dropped > 0) {
      std::printf("  dropped by layer:");
      for (const auto& [key, value] : s) {
        if (key.rfind("dropped.", 0) == 0) {
          std::printf(" %s=%s", key.substr(8).c_str(), value.c_str());
        }
      }
      std::printf("\n");
    }
  }

  static void PrintMetric(const JsonObject& o) {
    if (StrOr(o, "metric", "?") != "histogram") {
      std::printf("  %-36s %.6g\n", StrOr(o, "name", "?").c_str(),
                  NumOr(o, "value", 0.0));
      return;
    }
    std::printf("  %-36s count=%lld sum=%.6g", StrOr(o, "name", "?").c_str(),
                IntOr(o, "count", 0), NumOr(o, "sum", 0.0));
    // Interpolated quantiles from the serialized buckets — same estimator
    // the in-process Histogram::Quantile uses. Only printed when the arrays
    // are well formed (a damaged line degrades to the raw bucket dump, never
    // a crash).
    const auto bounds = ParseNumberArray(StrOr(o, "bounds", ""));
    const auto raw_buckets = ParseNumberArray(StrOr(o, "buckets", ""));
    if (!bounds.empty() && raw_buckets.size() == bounds.size() + 1) {
      std::vector<std::uint64_t> buckets;
      buckets.reserve(raw_buckets.size());
      for (double b : raw_buckets) {
        buckets.push_back(b >= 0.0 && b < 1e18 ? static_cast<std::uint64_t>(b)
                                               : 0);
      }
      std::printf(" p50=%.6g p95=%.6g p99=%.6g",
                  sds::telemetry::QuantileFromBuckets(bounds, buckets, 0.50),
                  sds::telemetry::QuantileFromBuckets(bounds, buckets, 0.95),
                  sds::telemetry::QuantileFromBuckets(bounds, buckets, 0.99));
    } else {
      std::printf(" buckets=%s", StrOr(o, "buckets", "[]").c_str());
    }
    std::printf("\n");
  }
};

// ---------------------------------------------------------------------------
// perfbench ledger: span (perfbench/run.py --trace 1 writes
// trace-<workload>.jsonl, one record per timed interval).
// ---------------------------------------------------------------------------

// Spans aggregate by their path from the root, so one name under different
// parents stays apart. Self time is a node's total minus the time of the
// spans directly under it; share is a node's total over its root's (the root
// is `tick` on the monitored workloads). The harness writes each span after
// its parent; a span whose parent has not appeared yet counts as a root.
struct Ledger {
  struct Node {
    long long count = 0;
    // ns, summed as doubles so damaged start/end values cannot overflow.
    double total = 0.0;
    double children = 0.0;
  };
  static constexpr long kMaxDepth = 16;

  long long spans = 0;
  // A node's key joins the names on its path from the root with \x01, which
  // sorts below every printable character, so key order is tree order.
  std::map<std::string, Node> nodes;
  std::map<std::pair<long long, long long>, std::string> keys;  // (run, id)

  static long Depth(const std::string& key) {
    return std::count(key.begin(), key.end(), '\x01');
  }

  void Add(const JsonObject& o) {
    ++spans;
    const double ns = NumOr(o, "end_ns", 0.0) - NumOr(o, "start_ns", 0.0);
    const long long run = IntOr(o, "run", 0);
    const auto parent = keys.find({run, IntOr(o, "parent", -1)});
    const bool nested =
        parent != keys.end() && Depth(parent->second) < kMaxDepth;
    const std::string name = StrOr(o, "name", "?");
    const std::string key = nested ? parent->second + '\x01' + name : name;
    nodes[key].count += 1;
    nodes[key].total += ns;
    if (nested) nodes[parent->second].children += ns;
    const long long id = IntOr(o, "id", -1);
    if (id >= 0) keys[{run, id}] = key;
  }

  void Print() const {
    std::printf("\nperfbench ledger (%lld spans)\n", spans);
    std::printf("  %-36s %10s %16s %16s %8s\n", "span", "count", "total ns",
                "self ns", "share");
    for (const auto& [key, node] : nodes) {
      const std::string label =
          std::string(static_cast<std::size_t>(Depth(key)) * 2, ' ') +
          key.substr(key.rfind('\x01') + 1);
      std::printf("  %-36s %10lld %16.0f %16.0f", label.c_str(), node.count,
                  node.total, node.total - node.children);
      const auto root = nodes.find(key.substr(0, key.find('\x01')));
      if (root != nodes.end() && root->second.total > 0.0) {
        std::printf(" %7.1f%%\n", 100.0 * node.total / root->second.total);
      } else {
        std::printf(" %8s\n", "-");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Fleet rollup + SLO: rollup, rollup_stats, slo_alert, slo_status.
// ---------------------------------------------------------------------------

// Per-metric fleet aggregate across all rollup rows.
// Sums of record values accumulate as doubles, so a damaged line carrying a
// count near the integer limits cannot overflow them.
struct MetricHealth {
  long long rows = 0;
  double count = 0.0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double worst_p95 = 0.0;
  double worst_p99 = 0.0;
  long long first_window = 0;
  long long last_window = 0;

  void Add(const JsonObject& row) {
    const double row_min = NumOr(row, "min", 0.0);
    const double row_max = NumOr(row, "max", 0.0);
    const long long window = IntOr(row, "window", 0);
    if (rows == 0) {
      min = row_min;
      max = row_max;
      first_window = last_window = window;
    } else {
      min = std::min(min, row_min);
      max = std::max(max, row_max);
      first_window = std::min(first_window, window);
      last_window = std::max(last_window, window);
    }
    ++rows;
    count += NumOr(row, "count", 0.0);
    sum += NumOr(row, "sum", 0.0);
    worst_p95 = std::max(worst_p95, NumOr(row, "p95", 0.0));
    worst_p99 = std::max(worst_p99, NumOr(row, "p99", 0.0));
  }

  double mean() const { return count == 0.0 ? 0.0 : sum / count; }
};

// Per-(host, tenant) ranking state for the --metric series.
struct TenantHealth {
  long long rows = 0;
  double worst_p95 = 0.0;
  double sum = 0.0;
  double count = 0.0;
  long long worst_window = 0;

  double mean() const { return count == 0.0 ? 0.0 : sum / count; }
};

struct Fleet {
  std::optional<JsonObject> stats;
  std::map<std::string, MetricHealth> metrics;
  std::map<std::pair<long long, long long>, TenantHealth> tenants;
  std::vector<JsonObject> alerts;
  std::vector<JsonObject> statuses;

  bool empty() const {
    return !stats && metrics.empty() && alerts.empty() && statuses.empty();
  }

  void AddRollup(const JsonObject& o, const std::string& rank_metric) {
    const std::string metric = StrOr(o, "metric", "?");
    metrics[metric].Add(o);
    if (metric != rank_metric) return;
    TenantHealth& t = tenants[{IntOr(o, "host", 0), IntOr(o, "tenant", 0)}];
    ++t.rows;
    const double p95 = NumOr(o, "p95", 0.0);
    if (p95 > t.worst_p95) {
      t.worst_p95 = p95;
      t.worst_window = IntOr(o, "window", 0);
    }
    t.sum += NumOr(o, "sum", 0.0);
    t.count += NumOr(o, "count", 0.0);
  }

  void Print(const Options& opt) const {
    if (stats) {
      const JsonObject& s = *stats;
      std::printf("\nrollup accounting: shards=%lld window_ticks=%lld "
                  "ingested=%lld rows=%lld live_series=%lld\n",
                  IntOr(s, "shards", 0), IntOr(s, "window_ticks", 0),
                  IntOr(s, "ingested", 0), IntOr(s, "rows", 0),
                  IntOr(s, "live_series", 0));
      std::printf("  drops: late=%lld series=%lld samples=%lld  "
                  "memory=%.1f KiB\n",
                  IntOr(s, "dropped_late", 0), IntOr(s, "dropped_series", 0),
                  IntOr(s, "dropped_samples", 0),
                  NumOr(s, "memory_bytes", 0.0) / 1024.0);
    } else {
      std::printf("\nrollup accounting: no rollup_stats record in stream\n");
    }

    if (!metrics.empty()) {
      std::printf("\nfleet health by metric:\n");
      TextTable table;
      table.SetHeader({"metric", "rows", "samples", "mean", "min", "max",
                       "worst p95", "worst p99", "windows"});
      for (const auto& [name, m] : metrics) {
        table.Row(name, m.rows, FormatFixed(m.count, 0),
                  FormatFixed(m.mean(), 3),
                  FormatFixed(m.min, 3), FormatFixed(m.max, 3),
                  FormatFixed(m.worst_p95, 3), FormatFixed(m.worst_p99, 3),
                  TextTable::Str(m.first_window) + ".." +
                      TextTable::Str(m.last_window));
      }
      table.Print(std::cout);
    } else {
      std::printf("\nfleet health: no rollup rows in stream\n");
    }

    if (!tenants.empty() && opt.top > 0) {
      std::vector<std::pair<std::pair<long long, long long>, TenantHealth>>
          ranked(tenants.begin(), tenants.end());
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second.worst_p95 != b.second.worst_p95)
                    return a.second.worst_p95 > b.second.worst_p95;
                  return a.first < b.first;  // deterministic tie-break
                });
      if (ranked.size() > opt.top) ranked.resize(opt.top);
      std::printf("\ntop %zu tenants by worst p95(%s):\n", ranked.size(),
                  opt.metric.c_str());
      TextTable table;
      table.SetHeader(
          {"host", "tenant", "worst p95", "at window", "mean", "rows"});
      for (const auto& [key, t] : ranked) {
        table.Row(key.first, key.second, FormatFixed(t.worst_p95, 3),
                  t.worst_window, FormatFixed(t.mean(), 3), t.rows);
      }
      table.Print(std::cout);
    } else if (opt.top > 0) {
      std::printf("\nno rollup rows for metric \"%s\" — nothing to rank (see "
                  "fleet health table for metric names)\n",
                  opt.metric.c_str());
    }

    if (!statuses.empty()) {
      std::printf("\nslo status (%zu alert transitions):\n", alerts.size());
      TextTable table;
      table.SetHeader(
          {"rule", "expr", "level", "burn", "violating", "windows"});
      for (const JsonObject& st : statuses) {
        table.Row(StrOr(st, "rule", "?"), StrOr(st, "expr", "?"),
                  StrOr(st, "level", "?"),
                  FormatFixed(NumOr(st, "burn", 0.0), 3),
                  IntOr(st, "violating", 0), IntOr(st, "windows", 0));
      }
      table.Print(std::cout);
    } else {
      std::printf("\nslo status: no slo_status records in stream (%zu alert "
                  "transitions)\n",
                  alerts.size());
    }

    if (opt.alerts > 0 && !alerts.empty()) {
      const std::size_t n = std::min(opt.alerts, alerts.size());
      std::printf("\nfirst %zu alert transitions:\n", n);
      TextTable table;
      table.SetHeader(
          {"window", "rule", "level", "burn", "host", "tenant", "observed"});
      for (std::size_t i = 0; i < n; ++i) {
        const JsonObject& a = alerts[i];
        table.Row(IntOr(a, "window", 0), StrOr(a, "rule", "?"),
                  StrOr(a, "level", "?"),
                  FormatFixed(NumOr(a, "burn", 0.0), 3), IntOr(a, "host", 0),
                  IntOr(a, "tenant", 0),
                  FormatFixed(NumOr(a, "observed", 0.0), 3));
      }
      table.Print(std::cout);
    }
  }
};

// ---------------------------------------------------------------------------
// Streaming-service accounting: svc_ref, svc_recovery.
// ---------------------------------------------------------------------------

struct Svc {
  std::optional<JsonObject> ref;
  std::vector<JsonObject> recoveries;

  bool empty() const { return !ref && recoveries.empty(); }

  // WAL / recovery / shed accounting. Any recovery row that is not
  // bit-identical means the crash-consistency pin broke for that crash
  // point.
  void Print(const Options& opt) const {
    std::printf("\nstreaming service accounting\n");
    if (ref) {
      const JsonObject& r = *ref;
      std::printf("  reference: events=%lld admitted=%lld coalesced=%lld "
                  "shed=%lld shed_rate=%.3f\n",
                  IntOr(r, "events", 0), IntOr(r, "admitted", 0),
                  IntOr(r, "coalesced", 0), IntOr(r, "shed", 0),
                  NumOr(r, "shed_rate", 0.0));
      std::printf("  wal_appends=%lld checkpoints=%lld quarantines=%lld "
                  "alarms=%lld decisions=%lld\n",
                  IntOr(r, "wal_appends", 0), IntOr(r, "checkpoints", 0),
                  IntOr(r, "quarantines", 0), IntOr(r, "alarms", 0),
                  IntOr(r, "decisions", 0));
    } else {
      std::printf("  reference: no svc_ref record in stream\n");
    }
    if (recoveries.empty()) return;
    std::size_t identical = 0, fired = 0;
    long long max_replayed = 0, max_deduped = 0;
    for (const auto& r : recoveries) {
      if (NumOr(r, "bit_identical", 0) != 0.0) ++identical;
      if (NumOr(r, "fired", 0) != 0.0) ++fired;
      max_replayed = std::max(max_replayed, IntOr(r, "replayed", 0));
      max_deduped = std::max(max_deduped, IntOr(r, "deduped", 0));
    }
    std::printf("  recovery: crash_points=%zu fired=%zu bit_identical=%zu/%zu "
                "max_replayed=%lld max_deduped=%lld%s\n",
                recoveries.size(), fired, identical, recoveries.size(),
                max_replayed, max_deduped,
                identical == recoveries.size() ? "" : "  ** PIN BROKEN **");
    if (!opt.svc) return;
    const auto yes = [](const JsonObject& r, const char* key, const char* no) {
      return NumOr(r, key, 0) != 0.0 ? "yes" : no;
    };
    TextTable table;
    table.SetHeader({"kind", "op", "bytes", "fired", "crash tick", "ckpt",
                     "replayed", "deduped", "wal stop", "identical"});
    for (const auto& r : recoveries) {
      table.Row(StrOr(r, "kind", "?"), IntOr(r, "op_index", 0),
                FormatFixed(NumOr(r, "byte_fraction", 0.0), 2),
                yes(r, "fired", "NO"), IntOr(r, "crash_tick", -1),
                yes(r, "from_checkpoint", "no"), IntOr(r, "replayed", 0),
                IntOr(r, "deduped", 0), StrOr(r, "wal_stop", "?"),
                yes(r, "bit_identical", "NO"));
    }
    table.Print(std::cout);
  }
};

// ---------------------------------------------------------------------------
// Forensic incident reports (detect::WriteForensicReportJson lines).
// ---------------------------------------------------------------------------

// Incident forensics: whom the hardware attribution ledger convicts for each
// alarm, and whether the KStest identification sweep concurred. One line per
// report (--forensics adds the per-suspect evidence rows), then the per-VM
// conviction table: a VM convicted across incidents is a serial offender,
// and a low agreement rate flags divergence between the hardware evidence
// and the perturbation-based baseline.
void PrintForensics(const std::vector<JsonObject>& reports,
                    const Options& opt) {
  struct Conviction {
    long long incidents = 0;
    long long ks_named = 0;   // KStest also produced a culprit
    long long ks_agreed = 0;  // ... and it was this VM
    double worst_score = 0.0;
  };
  std::map<long long, Conviction> convictions;
  std::size_t unattributed = 0;
  std::printf("\nforensic incident reports\n");
  for (const auto& r : reports) {
    const auto suspects = ParseObjectArray(StrOr(r, "suspects", "[]"));
    const bool attributed = IsTrue(r, "attributed");
    const long long prime = IntOr(r, "prime_suspect", 0);
    const long long ks = IntOr(r, "kstest_culprit", 0);
    std::printf("  ");
    PrintTick(IntOr(r, "alarm_tick", -1));
    if (attributed) {
      std::printf("  prime suspect VM %lld", prime);
    } else {
      std::printf("  unattributed");
    }
    std::printf("  evidence t=%lld..%lld", IntOr(r, "window_start", -1),
                IntOr(r, "window_end", -1));
    if (ks != 0) {
      std::printf("  kstest=VM %lld (%s)", ks,
                  IsTrue(r, "kstest_agrees") ? "agrees" : "DISAGREES");
    }
    std::printf("\n");
    if (opt.forensics) {
      for (const auto& s : suspects) {
        std::printf("    VM %-4lld score=%.3f evictions=%lld bus_delay=%lld "
                    "occupancy=%lld\n",
                    IntOr(s, "vm", 0), NumOr(s, "score", 0.0),
                    IntOr(s, "evictions", 0), IntOr(s, "bus_delay", 0),
                    IntOr(s, "occupancy", 0));
      }
    }
    if (!attributed) {
      ++unattributed;
      continue;
    }
    Conviction& c = convictions[prime];
    ++c.incidents;
    if (ks != 0) {
      ++c.ks_named;
      if (IsTrue(r, "kstest_agrees")) ++c.ks_agreed;
    }
    for (const auto& s : suspects) {
      if (IntOr(s, "vm", -1) == prime) {
        c.worst_score = std::max(c.worst_score, NumOr(s, "score", 0.0));
      }
    }
  }
  std::printf("\nforensic convictions (%zu reports, %zu unattributed):\n",
              reports.size(), unattributed);
  if (convictions.empty()) return;
  TextTable table;
  table.SetHeader(
      {"vm", "incidents", "worst score", "kstest named", "kstest agreed"});
  for (const auto& [vm, c] : convictions) {
    table.Row(vm, c.incidents, FormatFixed(c.worst_score, 3), c.ks_named,
              c.ks_agreed);
  }
  table.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Host chaos: hostchaos_header, host_state, evacuation, handoff.
// ---------------------------------------------------------------------------

// One header-delimited host-chaos run (bench_hostchaos --trace_out writes a
// hostchaos_header line per run, warm then cold, followed by that run's
// host_state / evacuation / handoff records).
struct HostChaosRun {
  JsonObject header;
  std::vector<JsonObject> host_states;
  std::vector<JsonObject> evacuations;
  std::vector<JsonObject> handoffs;

  bool warm() const { return IsTrue(header, "warm_handoff"); }
};

bool HostWentDown(const JsonObject& host_state) {
  const std::string to = StrOr(host_state, "to", "?");
  return to == "down" || to == "dead";
}

// Evacuation convergence over a set of evacuation records. Durations average
// only the finished ones: a task still pending at the horizon carries
// finished = kInvalidTick and has no duration yet.
struct EvacuationStats {
  std::size_t count = 0;
  double attempts = 0.0;
  std::map<std::string, long long> outcomes;
  long long finished = 0;
  double ticks = 0.0;

  void Add(const JsonObject& e) {
    ++count;
    attempts += NumOr(e, "attempts", 0.0);
    const std::string outcome = StrOr(e, "outcome", "?");
    ++outcomes[outcome];
    const double start = NumOr(e, "tick", 0.0);
    const double end = NumOr(e, "finished", start - 1.0);
    if (outcome != "pending" && end >= start) {
      ++finished;
      ticks += end - start;
    }
  }

  void Print(const char* indent) const {
    std::printf("%sevacuations: %zu", indent, count);
    for (const auto& [outcome, n] : outcomes) {
      std::printf("  %s=%lld", outcome.c_str(), n);
    }
    std::printf("  mean_attempts=%.1f", attempts / static_cast<double>(count));
    if (finished > 0) {
      std::printf(" mean_ticks=%.1f over %lld finished\n",
                  ticks / static_cast<double>(finished), finished);
    } else {
      std::printf(" mean_ticks=- (none finished)\n");
    }
  }
};

// Blind-window histogram bucket label for one handoff's blind_ticks value
// (-1 = still open when the run ended, i.e. censored).
const char* const kBlindBucketNames[] = {"censored", "0",       "1-50",
                                         "51-200",   "201-800", ">800"};
constexpr std::size_t kBlindBuckets = std::size(kBlindBucketNames);

std::size_t BlindBucket(long long blind) {
  if (blind < 0) return 0;
  if (blind == 0) return 1;
  if (blind <= 50) return 2;
  if (blind <= 200) return 3;
  if (blind <= 800) return 4;
  return 5;
}

// Host-chaos runs (DESIGN.md §17): fleet totals, then per run the host
// up/down timeline, evacuation convergence, the handoff ledger and a
// blind-window histogram, then the warm-vs-cold handoff table. The bench
// writes the warm and cold replay of the same cell back to back, so a warm
// row whose mean blind window is not well below the cold row's means the
// handoff is not carrying detector state.
void PrintHostChaos(const std::vector<HostChaosRun>& runs,
                    const Options& opt) {
  struct Side {
    long long runs = 0;
    long long handoffs = 0;
    double blind_sum = 0.0;  // over closed (non-censored) windows
    long long blind_closed = 0;
    long long blind_censored = 0;
    long long max_blind = 0;
  };
  Side sides[2];  // [0]=cold, [1]=warm
  std::size_t transitions = 0, downs = 0;
  EvacuationStats all_evacuations;
  for (const auto& hc : runs) {
    Side& side = sides[hc.warm() ? 1 : 0];
    ++side.runs;
    transitions += hc.host_states.size();
    for (const auto& t : hc.host_states) {
      if (HostWentDown(t)) ++downs;
    }
    for (const auto& e : hc.evacuations) all_evacuations.Add(e);
    for (const auto& h : hc.handoffs) {
      ++side.handoffs;
      const long long blind = IntOr(h, "blind_ticks", -1);
      if (blind < 0) {
        ++side.blind_censored;
      } else {
        ++side.blind_closed;
        side.blind_sum += static_cast<double>(blind);
        side.max_blind = std::max(side.max_blind, blind);
      }
    }
  }
  std::printf("\nhost-chaos runs: %zu (warm=%lld cold=%lld) "
              "host_transitions=%zu host_downs=%zu\n",
              runs.size(), sides[1].runs, sides[0].runs, transitions, downs);
  if (all_evacuations.count != 0) all_evacuations.Print("  ");

  for (std::size_t run = 0; run < runs.size(); ++run) {
    const HostChaosRun& hc = runs[run];
    std::printf("  run %zu: app=%s hosts=%lld handoff=%s attack_start=%lld "
                "horizon=%lld\n",
                run, StrOr(hc.header, "app", "?").c_str(),
                IntOr(hc.header, "hosts", 0), hc.warm() ? "warm" : "cold",
                IntOr(hc.header, "attack_start", -1),
                IntOr(hc.header, "horizon", -1));

    // Host timeline: transition count and per-host down entries.
    std::map<long long, long long> downs_by_host;
    for (const auto& t : hc.host_states) {
      if (HostWentDown(t)) ++downs_by_host[IntOr(t, "host", -1)];
    }
    std::printf("    host timeline: %zu transitions", hc.host_states.size());
    for (const auto& [host, n] : downs_by_host) {
      std::printf("  host%lld: %lld down", host, n);
    }
    std::printf("\n");
    if (opt.hostchaos) {
      for (const auto& t : hc.host_states) {
        std::printf("      ");
        PrintTick(IntOr(t, "tick", -1));
        std::printf("  host %lld  %s -> %s\n", IntOr(t, "host", -1),
                    StrOr(t, "from", "?").c_str(), StrOr(t, "to", "?").c_str());
      }
    }

    if (!hc.evacuations.empty()) {
      EvacuationStats stats;
      for (const auto& e : hc.evacuations) stats.Add(e);
      stats.Print("    ");
      if (opt.hostchaos) {
        for (const auto& e : hc.evacuations) {
          std::printf("      ");
          PrintTick(IntOr(e, "tick", -1));
          std::printf("  VM %lld  host %lld -> %lld  attempts=%lld  %s\n",
                      IntOr(e, "vm", -1), IntOr(e, "from_host", -1),
                      IntOr(e, "to_host", -1), IntOr(e, "attempts", 0),
                      StrOr(e, "outcome", "?").c_str());
        }
      }
    }

    if (!hc.handoffs.empty()) {
      std::size_t warm = 0;
      long long blind_hist[kBlindBuckets] = {};
      for (const auto& h : hc.handoffs) {
        if (IsTrue(h, "warm")) ++warm;
        ++blind_hist[BlindBucket(IntOr(h, "blind_ticks", -1))];
      }
      std::printf("    handoffs: %zu (warm=%zu cold=%zu)  blind-window:",
                  hc.handoffs.size(), warm, hc.handoffs.size() - warm);
      for (std::size_t b = 0; b < kBlindBuckets; ++b) {
        if (blind_hist[b] != 0) {
          std::printf(" [%s]=%lld", kBlindBucketNames[b], blind_hist[b]);
        }
      }
      std::printf("\n");
      if (opt.hostchaos) {
        for (const auto& h : hc.handoffs) {
          std::printf("      ");
          PrintTick(IntOr(h, "tick", -1));
          std::printf("  VM %lld  host %lld -> %lld  %s %s %s  blind=%lld\n",
                      IntOr(h, "vm", -1), IntOr(h, "from_host", -1),
                      IntOr(h, "to_host", -1),
                      IsTrue(h, "forced") ? "forced" : "evac",
                      IsTrue(h, "warm") ? "warm" : "cold",
                      StrOr(h, "status", "?").c_str(),
                      IntOr(h, "blind_ticks", -1));
        }
      }
    }
  }

  if (sides[0].handoffs == 0 && sides[1].handoffs == 0) return;
  std::printf("  warm vs cold handoff:\n");
  TextTable table;
  table.SetHeader(
      {"handoff", "runs", "handoffs", "mean blind", "max blind", "censored"});
  for (int s = 1; s >= 0; --s) {
    const Side& side = sides[s];
    table.Row(s == 1 ? "warm" : "cold", side.runs, side.handoffs,
              side.blind_closed == 0
                  ? "-"
                  : FormatFixed(side.blind_sum /
                                    static_cast<double>(side.blind_closed),
                                1),
              side.max_blind, side.blind_censored);
  }
  table.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Lint: the sdslint --stats payload, the one record kind without a "type".
// ---------------------------------------------------------------------------

void PrintLint(const JsonObject& s, const Options& opt) {
  std::printf("\nlint analysis (schema_version=%lld)\n",
              IntOr(s, "schema_version", 0));
  std::printf("  scanned=%lld files  functions=%lld call_edges=%lld\n",
              IntOr(s, "files_scanned", 0), IntOr(s, "functions", 0),
              IntOr(s, "call_edges", 0));
  std::printf("  taint: seeds=%lld tainted_functions=%lld\n",
              IntOr(s, "taint_seeds", 0), IntOr(s, "tainted_functions", 0));
  std::printf("  findings: diagnostics=%lld suppressions=%lld\n",
              IntOr(s, "diagnostics", 0), IntOr(s, "suppressions", 0));
  if (!opt.lint) return;
  JsonObject hits;
  if (ParseLine(StrOr(s, "rule_hits", "{}"), hits) && !hits.empty()) {
    std::printf("  %-40s %10s\n", "rule", "hits");
    for (const auto& [rule, count] : hits) {
      std::printf("  %-40s %10s\n", rule.c_str(), count.c_str());
    }
  } else {
    std::printf("  (no per-rule hits recorded)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"layer", "restrict event tables to this layer"},
           {"audit", "dump every audit record", true},
           {"events", "also dump the first N matching events"},
           {"metric",
            "rollup metric used to rank tenants (default "
            "detect.latency_ticks)"},
           {"top", "noisiest tenants to show (default 10)"},
           {"alerts", "dump the first N slo_alert records (default 0)"},
           {"svc", "dump per-crash-point service recovery rows", true},
           {"forensics",
            "dump per-suspect evidence under each forensic report", true},
           {"hostchaos",
            "dump host up/down transitions and evacuation/handoff rows under "
            "each host-chaos run",
            true},
           {"lint", "dump per-rule hit counts under the lint summary",
            true}})) {
    return flags.help_requested() ? 0 : 1;
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: trace_inspect <stream.jsonl> [--layer=L] [--audit] "
                 "[--events=N] [--metric=NAME] [--top=K] [--alerts=N] "
                 "[--svc] [--forensics] [--hostchaos] [--lint]\n");
    return 1;
  }
  const auto count_flag = [&](const char* name, long long fallback) {
    return static_cast<std::size_t>(std::max(flags.GetInt(name, fallback), 0LL));
  };
  Options opt;
  opt.layer = flags.GetString("layer", "");
  opt.audit = flags.GetBool("audit", false);
  opt.events = count_flag("events", 0);
  opt.metric = flags.GetString("metric", "detect.latency_ticks");
  opt.top = count_flag("top", 10);
  opt.alerts = count_flag("alerts", 0);
  opt.svc = flags.GetBool("svc", false);
  opt.forensics = flags.GetBool("forensics", false);
  opt.hostchaos = flags.GetBool("hostchaos", false);
  opt.lint = flags.GetBool("lint", false);

  const std::string path = flags.positional()[0];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_inspect: cannot open %s\n", path.c_str());
    return 1;
  }

  // Input-hygiene accounting: each malformation class counted separately so
  // "my tool said nothing" and "my file is damaged" are distinguishable.
  long long lines = 0, records = 0, empty_lines = 0, bad_lines = 0;
  std::map<std::string, long long> unknown_types;
  Telemetry telemetry;
  Ledger ledger;
  Fleet fleet;
  Svc svc;
  std::vector<JsonObject> forensic_reports;
  std::vector<HostChaosRun> hostchaos_runs;
  std::optional<JsonObject> lint_stats;

  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    // Whitespace-only lines (including the \r a CRLF file leaves on an
    // otherwise blank line) count as empty, not malformed.
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      ++empty_lines;
      continue;
    }
    JsonObject o;
    if (!ParseLine(line, o)) {
      ++bad_lines;
      continue;
    }
    const std::string type = StrOr(o, "type", "");
    if (type == "header") {
      telemetry.header = o;
    } else if (type == "tracer_stats") {
      telemetry.tracer_stats = o;
    } else if (type == "event") {
      telemetry.AddEvent(o, line, opt);
    } else if (type == "audit") {
      telemetry.AddAudit(o, line, opt);
    } else if (type == "metric") {
      telemetry.metrics.push_back(o);
    } else if (type == "span") {
      ledger.Add(o);
    } else if (type == "rollup") {
      fleet.AddRollup(o, opt.metric);
    } else if (type == "rollup_stats") {
      fleet.stats = o;
    } else if (type == "slo_alert") {
      fleet.alerts.push_back(o);
    } else if (type == "slo_status") {
      fleet.statuses.push_back(o);
    } else if (type == "svc_ref") {
      svc.ref = o;
    } else if (type == "svc_recovery") {
      svc.recoveries.push_back(o);
    } else if (type == "forensic_report") {
      forensic_reports.push_back(o);
    } else if (type == "hostchaos_header") {
      hostchaos_runs.emplace_back().header = o;
    } else if (type == "host_state" || type == "evacuation" ||
               type == "handoff") {
      // A record before any header (truncated file) still gets summarized
      // under an implicit run.
      if (hostchaos_runs.empty()) hostchaos_runs.emplace_back();
      HostChaosRun& run = hostchaos_runs.back();
      (type == "host_state"   ? run.host_states
       : type == "evacuation" ? run.evacuations
                              : run.handoffs)
          .push_back(o);
    } else if (type.empty() && o.count("rule_hits") != 0 &&
               o.count("files_scanned") != 0) {
      lint_stats = o;
    } else {
      // A future writer's record (or corruption that still parses): count
      // it by name, keep going.
      ++unknown_types[type.empty() ? "(missing)" : type];
      continue;
    }
    ++records;
  }

  long long unknown = 0;
  for (const auto& [name, count] : unknown_types) unknown += count;
  std::printf("trace_inspect: %s\n", path.c_str());
  std::printf("  lines=%lld records=%lld empty=%lld unparseable=%lld "
              "unknown=%lld\n",
              lines, records, empty_lines, bad_lines, unknown);
  if (!unknown_types.empty()) {
    std::printf("  unknown record types:");
    for (const auto& [name, count] : unknown_types) {
      std::printf(" %s=%lld", name.c_str(), count);
    }
    std::printf("\n");
  }
  if (!telemetry.empty()) telemetry.Print(opt);
  if (ledger.spans > 0) ledger.Print();
  if (!fleet.empty()) fleet.Print(opt);
  if (!svc.empty()) svc.Print(opt);
  if (!forensic_reports.empty()) PrintForensics(forensic_reports, opt);
  if (!hostchaos_runs.empty()) PrintHostChaos(hostchaos_runs, opt);
  if (lint_stats) PrintLint(*lint_stats, opt);
  return 0;
}
