// jsonl: the line reader behind tools/trace_inspect (and its tests).
//
// It handles exactly the flat one-object-per-line JSON this repo emits
// (string/number/bool values, numeric arrays, arrays of flat objects, one
// level of nested object); it is not a general JSON parser and does not try
// to be. Nothing here throws or crashes on malformed input: a damaged line
// fails ParseLine, a damaged value falls back to the caller's default.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sds::tools {

// One parsed JSONL line: flat key -> raw value text (quotes stripped for
// strings; arrays and nested objects kept verbatim).
using JsonObject = std::map<std::string, std::string>;

// Parses one `{...}` line into `out`. Returns false on any malformation,
// including non-whitespace after the closing brace (two records glued onto
// one line); trailing spaces, tabs and a CRLF `\r` are accepted.
bool ParseLine(const std::string& line, JsonObject& out);

double NumOr(const JsonObject& o, const std::string& key, double fallback);

// NumOr truncated to an integer. A value that is not a finite number inside
// the long long range yields `fallback` instead of an out-of-range cast.
long long IntOr(const JsonObject& o, const std::string& key,
                long long fallback);

std::string StrOr(const JsonObject& o, const std::string& key,
                  const std::string& fallback);

// True when `key` holds the JSON literal true.
bool IsTrue(const JsonObject& o, const std::string& key);

// Parses an "[{...},{...}]" array of FLAT objects (as ParseLine keeps them
// verbatim — the forensic "suspects" field). Damaged elements are skipped.
std::vector<JsonObject> ParseObjectArray(const std::string& raw);

// Parses a "[1,2,3]" array value (as ParseLine keeps them) into numbers.
// Unparseable elements are skipped rather than fatal.
std::vector<double> ParseNumberArray(const std::string& raw);

}  // namespace sds::tools
