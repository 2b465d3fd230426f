// sdslint: project-specific static analysis for the memdos_sds tree.
//
// v2 (DESIGN.md §16) is a multi-pass, cross-translation-unit analyzer — still
// deliberately lexer-light (no libclang):
//
//   pass 1  symbols.cpp   every TU distilled into a FileSummary (model.h):
//                         includes, suppressions, sink tokens, declared
//                         functions/methods (declared vs defined), call
//                         sites, annotated fields, lock operations.
//   pass 2  graph.cpp     cross-TU call graph: call sites resolved against
//                         the symbol index, scoped by each TU's quoted
//                         include closure (a declaration in your closure
//                         links you to its out-of-closure definition).
//   pass 3  graph.cpp     interprocedural determinism taint: live sinks
//                         (ambient randomness, wall clocks, pointer
//                         printing, unordered-container iteration) propagate
//                         backward through the call graph; a deterministic
//                         layer calling across files into a tainted function
//                         is diagnosed with the full call chain (det-taint).
//   pass 4  conc.cpp      concurrency discipline from the SDS_GUARDED_BY /
//                         SDS_SHARD_OWNED / SDS_ASSERT_HELD annotations
//                         (common/annotations.h): conc-guarded-by,
//                         conc-lock-order, conc-shard-owned.
//
// plus the v1 rule families, byte-compatible: the layer DAG, the direct
// determinism contract, header hygiene, and the seam rules
// (det-actuation-idempotent, det-attrib-ledger, det-snapshot/wal-versioned).
//
// Ships with a --stats run summary (output.cpp) for the CI lint report.
//
// The analyzer is a library so the fixture tests can drive it directly; the
// CLI in main.cpp is a thin wrapper. Diagnostics print as
//   file:line: [rule-id] message
// which is both grep-able and clickable in editors/CI logs.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sdslint {

// Rule identifiers, exactly as they appear in diagnostics and in the
// allow(<rule>) suppression comments (spelled with an `sdslint` prefix).
inline constexpr char kRuleLayerDag[] = "layer-dag";
inline constexpr char kRuleDetRand[] = "det-rand";
inline constexpr char kRuleDetClock[] = "det-clock";
inline constexpr char kRuleDetPointerPrint[] = "det-pointer-print";
inline constexpr char kRuleDetUnorderedIter[] = "det-unordered-iter";
inline constexpr char kRuleDetActuationIdempotent[] =
    "det-actuation-idempotent";
inline constexpr char kRuleDetAttribLedger[] = "det-attrib-ledger";
inline constexpr char kRuleDetSnapshotVersioned[] = "det-snapshot-versioned";
inline constexpr char kRuleDetWalVersioned[] = "det-wal-versioned";
inline constexpr char kRuleDetHandoffVersioned[] = "det-handoff-versioned";
inline constexpr char kRuleHdrPragmaOnce[] = "hdr-pragma-once";
inline constexpr char kRuleHdrSelfContained[] = "hdr-self-contained";
inline constexpr char kRuleHdrTelemetryFwd[] = "hdr-telemetry-fwd";
// v2 rule families.
inline constexpr char kRuleDetTaint[] = "det-taint";
inline constexpr char kRuleConcGuardedBy[] = "conc-guarded-by";
inline constexpr char kRuleConcLockOrder[] = "conc-lock-order";
inline constexpr char kRuleConcShardOwned[] = "conc-shard-owned";

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// One allow(...) suppression comment found in the tree, for
// --list-suppressions. `used` flips when the comment actually silenced at
// least one diagnostic, so stale escape hatches are visible.
struct Suppression {
  std::string file;
  int line = 0;           // line the suppression applies to
  int comment_line = 0;   // line the comment itself is on
  std::string rules;      // raw rule list inside allow(...)
  bool used = false;
};

struct Options {
  // Files or directories to scan (recursively, *.h/*.hpp/*.cpp/*.cc).
  std::vector<std::string> paths;
  // Directory containing src/ — quoted includes resolve against
  // <include_root>/src/<target>. Defaults to the current directory.
  std::string include_root = ".";
  // Path-substring filters; a file whose path contains any entry is skipped.
  // The CLI seeds this with "build/" and "tests/lint/fixtures" (seeded
  // violations testing sdslint itself must not fail the real tree).
  std::vector<std::string> ignores;
};

// Run statistics, also the payload of the CLI's --stats JSON.
struct Stats {
  int files_scanned = 0;
  int functions = 0;
  int call_edges = 0;
  int taint_seeds = 0;
  int tainted_functions = 0;
  std::map<std::string, int> rule_hits;  // rule id -> emitted count
};

struct Result {
  std::vector<Diagnostic> diagnostics;   // sorted by file, then line
  std::vector<Suppression> suppressions; // every allow() comment seen
  int files_scanned = 0;
  Stats stats;
};

Result Run(const Options& options);

// "file:line: [rule-id] message"
std::string FormatText(const Diagnostic& d);

// Whole-result JSON: {"files_scanned":N,"diagnostics":[...],"suppressions":[...]}
// Byte-compatible with v1: same keys, same order, no additions.
std::string ToJson(const Result& result);

// Stats payload as one JSON object (no schema_version; the CLI splices that
// via bench/common/reporter.h so the envelope matches every BENCH_* line).
std::string StatsJson(const Result& result);

// Layer metadata, exposed for tests and for the --explain output.
// Rank comparisons define the DAG: an include from layer A to layer B is
// legal iff rank(B) < rank(A), or A == B. telemetry (any layer may include
// it) and fault (only cluster/eval and the non-layer trees may include it)
// are special-cased; tests/bench/tools/examples rank above everything.
int LayerRank(const std::string& layer);          // -1 if unknown
bool IsDeterministicLayer(const std::string& layer);
// Maps a path like "src/sim/cache.cpp" or "tests/lint/fixtures/src/sim/x.cpp"
// to its layer name ("" when the path is outside any known layer).
std::string LayerOfPath(const std::string& path);

}  // namespace sdslint
