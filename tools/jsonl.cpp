#include "jsonl.h"

#include <string>

namespace sds::tools {

bool ParseLine(const std::string& line, JsonObject& out) {
  out.clear();
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  // At a closing brace: the record ends here, so only whitespace (and the
  // `\r` of a CRLF file) may follow it.
  const auto closes = [&] {
    ++i;
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
    return i == line.size();
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  while (true) {
    skip_ws();
    if (i < line.size() && line[i] == '}') return closes();
    // Key.
    if (i >= line.size() || line[i] != '"') return false;
    const auto key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) return false;
    std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i >= line.size()) return false;
    // Value: string, array (kept verbatim), or bare token (number/bool).
    std::string value;
    if (line[i] == '"') {
      const auto end = line.find('"', i + 1);
      if (end == std::string::npos) return false;
      value = line.substr(i + 1, end - i - 1);
      i = end + 1;
    } else if (line[i] == '[') {
      const auto end = line.find(']', i);
      if (end == std::string::npos) return false;
      value = line.substr(i, end - i + 1);
      i = end + 1;
    } else if (line[i] == '{') {
      // One level of nesting, kept verbatim like arrays (the sdslint stats
      // payload's flat "rule_hits" object); re-parse with ParseLine to read
      // its fields.
      const auto end = line.find('}', i);
      if (end == std::string::npos) return false;
      value = line.substr(i, end - i + 1);
      i = end + 1;
    } else {
      const auto end = line.find_first_of(",}", i);
      if (end == std::string::npos) return false;
      value = line.substr(i, end - i);
      i = end;
    }
    out.emplace(std::move(key), std::move(value));
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return closes();
    return false;
  }
}

double NumOr(const JsonObject& o, const std::string& key, double fallback) {
  const auto it = o.find(key);
  if (it == o.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

long long IntOr(const JsonObject& o, const std::string& key,
                long long fallback) {
  const double v = NumOr(o, key, static_cast<double>(fallback));
  // [-2^63, 2^63): both bounds are exact doubles, and NaN fails both tests.
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
    return fallback;
  }
  return static_cast<long long>(v);
}

std::string StrOr(const JsonObject& o, const std::string& key,
                  const std::string& fallback) {
  const auto it = o.find(key);
  return it == o.end() ? fallback : it->second;
}

bool IsTrue(const JsonObject& o, const std::string& key) {
  return StrOr(o, key, "") == "true";
}

std::vector<JsonObject> ParseObjectArray(const std::string& raw) {
  std::vector<JsonObject> out;
  std::size_t i = 0;
  while ((i = raw.find('{', i)) != std::string::npos) {
    const auto end = raw.find('}', i);
    if (end == std::string::npos) break;
    JsonObject o;
    if (ParseLine(raw.substr(i, end - i + 1), o)) out.push_back(std::move(o));
    i = end + 1;
  }
  return out;
}

std::vector<double> ParseNumberArray(const std::string& raw) {
  std::vector<double> out;
  if (raw.size() < 2 || raw.front() != '[' || raw.back() != ']') return out;
  std::size_t i = 1;
  while (i < raw.size() - 1) {
    const auto end = raw.find_first_of(",]", i);
    const std::string token = raw.substr(i, end - i);
    try {
      out.push_back(std::stod(token));
    } catch (...) {
      // skip
    }
    if (end == std::string::npos || end >= raw.size() - 1) break;
    i = end + 1;
  }
  return out;
}

}  // namespace sds::tools
