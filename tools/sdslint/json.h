// Minimal JSON string escaping shared by the legacy --json emitter
// (lint.cpp) and the --stats emitter (output.cpp).
#pragma once

#include <string>

namespace sdslint {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace sdslint
