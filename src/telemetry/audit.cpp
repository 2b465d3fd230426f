#include "telemetry/audit.h"

#include <ostream>

#include "telemetry/metrics.h"

namespace sds::telemetry {

void WriteAuditJson(std::ostream& os, const AuditRecord& r) {
  os << "{\"type\":\"audit\",\"tick\":" << r.tick << ",\"detector\":\""
     << r.detector << "\",\"check\":\"" << r.check << "\",\"channel\":\""
     << r.channel << "\",\"value\":" << JsonNumber{r.value}
     << ",\"lower\":" << JsonNumber{r.lower} << ",\"upper\":"
     << JsonNumber{r.upper} << ",\"margin\":" << JsonNumber{r.margin}
     << ",\"violation\":" << (r.violation ? "true" : "false")
     << ",\"consecutive\":" << r.consecutive
     << ",\"alarm\":" << (r.alarm ? "true" : "false") << '}';
}

void AuditLog::WriteJsonl(std::ostream& os) const {
  for (const auto& r : records_) {
    WriteAuditJson(os, r);
    os << '\n';
  }
}

}  // namespace sds::telemetry
