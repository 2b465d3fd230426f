#include "telemetry/timeline.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <ostream>

#include "telemetry/telemetry.h"

namespace sds::telemetry {

namespace {

bool IsContentionEvent(const char* name) {
  if (name == nullptr) return false;
  return std::strcmp(name, "bus_saturated") == 0 ||
         std::strcmp(name, "cross_owner_eviction") == 0 ||
         std::strcmp(name, "lock_window_open") == 0;
}

// Detector-decision audit records only: mitigation actuations and
// degradation actions are joined separately, not treated as checks.
bool IsDetectorCheck(const AuditRecord& r) {
  return std::strcmp(r.check, "mitigation") != 0 &&
         std::strcmp(r.check, "degrade") != 0;
}

Tick SafeDelta(Tick later, Tick earlier) {
  return later >= earlier ? later - earlier : 0;
}

}  // namespace

std::vector<Incident> ReconstructIncidents(const Telemetry& telemetry,
                                           const TimelineOptions& options) {
  const EventTracer& tracer = telemetry.tracer();
  const auto& records = telemetry.audit().records();

  // Attack start: explicit option wins; otherwise the eval-layer marker
  // event (emitted by eval::Experiment when stage 3 begins).
  Tick attack_start = options.attack_start;
  if (attack_start == kInvalidTick) {
    for (std::size_t i = 0; i < tracer.retained(); ++i) {
      const TraceEvent& e = tracer.event(i);
      if (e.name != nullptr &&
          std::strcmp(e.name, "attack_phase_begin") == 0) {
        attack_start = e.tick;
        break;
      }
    }
  }
  if (attack_start == kInvalidTick) return {};

  // First observable contention symptom after the attack began.
  Tick first_contention = kInvalidTick;
  for (std::size_t i = 0; i < tracer.retained(); ++i) {
    const TraceEvent& e = tracer.event(i);
    if (e.tick < attack_start || !IsContentionEvent(e.name)) continue;
    if (first_contention == kInvalidTick || e.tick < first_contention) {
      first_contention = e.tick;
    }
  }

  // Mitigation actuations, in tick order (the log is appended in tick order).
  std::vector<Tick> mitigations;
  for (const AuditRecord& r : records) {
    if (std::strcmp(r.check, "mitigation") == 0) mitigations.push_back(r.tick);
  }

  std::vector<Incident> incidents;
  std::map<std::string, bool> alarm_state;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AuditRecord& r = records[i];
    if (!IsDetectorCheck(r)) continue;
    bool& state = alarm_state[r.detector];
    if (r.alarm == state) continue;
    state = r.alarm;
    if (!r.alarm || r.tick < attack_start) continue;

    Incident inc;
    inc.detector = r.detector;
    inc.attack_start = attack_start;
    inc.first_contention = first_contention;
    inc.alarm = r.tick;

    // Decisive record: among this detector's records at the alarm tick,
    // prefer a violating one (both channels are audited per interval; the
    // alarm flag is set on all of them).
    const AuditRecord* decisive = &r;
    std::size_t decisive_index = i;
    for (std::size_t j = i; j < records.size() && records[j].tick == r.tick;
         ++j) {
      const AuditRecord& cand = records[j];
      if (IsDetectorCheck(cand) && inc.detector == cand.detector &&
          cand.alarm && cand.violation) {
        decisive = &cand;
        decisive_index = j;
        break;
      }
    }
    inc.channel = decisive->channel;

    // First post-attack check of this detector (any channel).
    for (const AuditRecord& c : records) {
      if (!IsDetectorCheck(c) || inc.detector != c.detector) continue;
      if (c.tick >= attack_start) {
        inc.first_check = c.tick;
        break;
      }
    }

    // Decisive streak start: the latest record on the decisive channel and
    // check with consecutive == 1 at or before the alarm (the consecutive
    // counter resets on every pass, so this is the streak's first violation).
    for (std::size_t j = decisive_index + 1; j-- > 0;) {
      const AuditRecord& c = records[j];
      if (!IsDetectorCheck(c) || inc.detector != c.detector ||
          std::strcmp(c.check, decisive->check) != 0 ||
          std::strcmp(c.channel, decisive->channel) != 0 ||
          c.tick > inc.alarm) {
        continue;
      }
      if (!c.violation) break;  // walked past the streak
      inc.streak_start = c.tick;
      if (c.consecutive <= 1) break;
    }
    if (inc.streak_start == kInvalidTick) inc.streak_start = inc.alarm;
    if (inc.first_check == kInvalidTick) inc.first_check = inc.streak_start;

    const auto mit = std::lower_bound(mitigations.begin(), mitigations.end(),
                                      inc.alarm);
    if (mit != mitigations.end()) inc.mitigation = *mit;

    inc.delay.sampling_wait = SafeDelta(inc.first_check, attack_start);
    inc.delay.detector_compute = SafeDelta(inc.streak_start, inc.first_check);
    inc.delay.debounce = SafeDelta(inc.alarm, inc.streak_start);
    inc.delay.mitigation = inc.mitigation == kInvalidTick
                               ? 0
                               : SafeDelta(inc.mitigation, inc.alarm);
    incidents.push_back(std::move(inc));
  }
  return incidents;
}

void WriteIncidentReport(std::ostream& os,
                         const std::vector<Incident>& incidents,
                         const Telemetry& telemetry, double tpcm_seconds) {
  const TickClock clock(tpcm_seconds);
  if (incidents.empty()) {
    os << "incident timeline: no post-attack alarm incidents\n";
    return;
  }
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    const Incident& inc = incidents[i];
    os << "incident #" << i + 1 << " (" << inc.detector << " on "
       << inc.channel << ")\n";
    os << "  attack begins        t=" << inc.attack_start << " ("
       << clock.ToSeconds(inc.attack_start) << "s)\n";
    if (inc.first_contention != kInvalidTick) {
      os << "  first contention     t=" << inc.first_contention << " (+"
         << clock.ToSeconds(inc.first_contention - inc.attack_start) << "s)";
      // The ring drops oldest events, so after a long run the earliest
      // RETAINED contention symptom can postdate the alarm itself.
      if (telemetry.tracer().dropped() > 0) {
        os << " [earliest retained; " << telemetry.tracer().dropped()
           << " older events dropped]";
      }
      os << "\n";
    }
    os << "  first check          t=" << inc.first_check
       << "  sampling wait      " << inc.delay.sampling_wait << " ticks ("
       << clock.ToSeconds(inc.delay.sampling_wait) << "s)\n";
    os << "  violation streak     t=" << inc.streak_start
       << "  detector compute   " << inc.delay.detector_compute << " ticks ("
       << clock.ToSeconds(inc.delay.detector_compute) << "s)\n";
    os << "  alarm                t=" << inc.alarm
       << "  debounce           " << inc.delay.debounce << " ticks ("
       << clock.ToSeconds(inc.delay.debounce) << "s)\n";
    if (inc.mitigation != kInvalidTick) {
      os << "  mitigation           t=" << inc.mitigation
         << "  actuation          " << inc.delay.mitigation << " ticks ("
         << clock.ToSeconds(inc.delay.mitigation) << "s)\n";
    }
    os << "  detection delay      " << inc.delay.detection_total()
       << " ticks (" << clock.ToSeconds(inc.delay.detection_total())
       << "s)\n";
  }
}

}  // namespace sds::telemetry
