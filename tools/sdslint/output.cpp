// --stats JSON emitter (the legacy text/--json formats live in lint.cpp and
// are frozen byte-for-byte).
#include <string>

#include "sdslint/json.h"
#include "sdslint/lint.h"

namespace sdslint {

std::string StatsJson(const Result& result) {
  const Stats& s = result.stats;
  std::string out = "{\"files_scanned\":" + std::to_string(s.files_scanned) +
                    ",\"functions\":" + std::to_string(s.functions) +
                    ",\"call_edges\":" + std::to_string(s.call_edges) +
                    ",\"taint_seeds\":" + std::to_string(s.taint_seeds) +
                    ",\"tainted_functions\":" +
                    std::to_string(s.tainted_functions) +
                    ",\"diagnostics\":" +
                    std::to_string(result.diagnostics.size()) +
                    ",\"suppressions\":" +
                    std::to_string(result.suppressions.size()) +
                    ",\"rule_hits\":{";
  bool first = true;
  for (const auto& [rule, count] : s.rule_hits) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(rule) + "\":" + std::to_string(count);
  }
  out += "}}";
  return out;
}

}  // namespace sdslint
