#include "telemetry/telemetry.h"

#include <fstream>
#include <ostream>

namespace sds::telemetry {

void Telemetry::WriteJsonl(std::ostream& os) {
  os << "{\"type\":\"header\",\"format\":\"sds-telemetry\",\"version\":1"
     << ",\"events_emitted\":" << tracer_.emitted()
     << ",\"events_dropped\":" << tracer_.dropped()
     << ",\"audit_records\":" << audit_.size() << "}\n";
  tracer_.WriteStatsJson(os);
  os << "\n";
  // Surface ring saturation as first-class metrics so rollup/alerting
  // pipelines (obs layer, trace_inspect) see drops without parsing the
  // tracer_stats line.
  metrics_.GetGauge("telemetry.tracer.emitted")
      ->Set(static_cast<double>(tracer_.emitted()));
  metrics_.GetGauge("telemetry.tracer.dropped")
      ->Set(static_cast<double>(tracer_.dropped()));
  tracer_.FlushJsonl(os);
  audit_.WriteJsonl(os);
  metrics_.WriteJsonl(os);
}

bool Telemetry::WriteJsonlFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteJsonl(out);
  return static_cast<bool>(out);
}

}  // namespace sds::telemetry
